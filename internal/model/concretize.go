package model

import (
	"sort"

	"repro/internal/kernel"
	"repro/internal/spec"
	"repro/internal/sym"
)

// FixupCall attaches the O_ANYFD flag to descriptor-allocating calls
// unless the model ran under the POSIX lowest-FD rule, matching the
// specification nondeterminism the generated tests assume.
func (posixSpec) FixupCall(cfg spec.Config, call *kernel.Call) {
	if !cfg.LowestFD && (call.Op == "open" || call.Op == "pipe") {
		call.Args["anyfd"] = 1
	}
}

// setupPlan holds one path's probe plans, one per dictionary of state.
type setupPlan struct {
	inode, fname, data, fd, pipe, piped, anon, vma *spec.ProbePlan
}

// PlanSetup plans the eight dictionaries' probes of one path. The setup it
// mines owns every fs-specific field-name convention (len, nlink, off,
// head, tail, foff).
func (posixSpec) PlanSetup(a, b spec.State) func(sym.Model) kernel.Setup {
	sa, sb := a.(*state), b.(*state)
	pl := &setupPlan{
		inode: spec.PlanProbes(sa.Inode, sb.Inode),
		fname: spec.PlanProbes(sa.Fname, sb.Fname),
		data:  spec.PlanProbes(sa.Data, sb.Data),
		fd:    spec.PlanProbes(sa.FD, sb.FD),
		pipe:  spec.PlanProbes(sa.Pipe, sb.Pipe),
		piped: spec.PlanProbes(sa.PipeD, sb.PipeD),
		anon:  spec.PlanProbes(sa.Anon, sb.Anon),
		vma:   spec.PlanProbes(sa.VMA, sb.VMA),
	}
	return pl.setup
}

// setup reconstructs a concrete, realizable initial kernel state from the
// model assignment. Link counts are realized with hidden extra links (the
// paper's Figure 5 "__i0" trick) when the probed count exceeds the
// visible names.
func (pl *setupPlan) setup(m sym.Model) kernel.Setup {
	var s kernel.Setup

	inodeLen := map[int64]int64{}
	// inPlay puts an initial inode in the setup, with length ln unless it
	// already is; numbers below 1 were allocated during the calls.
	inPlay := func(inum, ln int64) bool {
		if inum < 1 {
			return false
		}
		if _, ok := inodeLen[inum]; !ok {
			inodeLen[inum] = ln
		}
		return true
	}
	inodeNlink := map[int64]int64{}
	for _, p := range pl.inode.Eval(m) {
		if inum := p.Key[0]; inPlay(inum, spec.Clamp(p.Field("len"), 0, maxLen)) {
			inodeNlink[inum] = spec.Clamp(p.Field("nlink"), 0, maxInum)
		}
	}

	visibleLinks := map[int64]int{}
	for _, p := range pl.fname.Eval(m) {
		name, inum := p.Key[0], p.Field("inum")
		if inPlay(inum, 0) {
			s.Files = append(s.Files, kernel.SetupFile{Name: kernel.Fname(name), Inum: inum})
			visibleLinks[inum]++
		}
	}

	pages := map[int64]map[int64]int64{}
	for _, p := range pl.data.Eval(m) {
		inum, pg := p.Key[0], p.Key[1]
		if inum < 1 || pg < 0 {
			continue
		}
		if _, ok := inodeLen[inum]; !ok {
			continue // content of a file not otherwise in play
		}
		if pg >= inodeLen[inum] {
			continue // beyond EOF: invisible through the interface
		}
		if pages[inum] == nil {
			pages[inum] = map[int64]int64{}
		}
		pages[inum][pg] = p.Field("val")
	}

	pipesNeeded := map[int64]bool{}
	for _, p := range pl.fd.Eval(m) {
		proc, fd := int(p.Key[0]), p.Key[1]
		if fd < 0 {
			continue
		}
		sd := kernel.SetupFD{Proc: proc, FD: fd}
		if p.Bool("ispipe") {
			sd.Pipe = true
			sd.PipeID = p.Field("pipe")
			sd.WriteEnd = p.Bool("wend")
			if sd.PipeID >= 1 {
				pipesNeeded[sd.PipeID] = true
			}
		} else {
			sd.Inum = p.Field("inum")
			sd.Off = spec.Clamp(p.Field("off"), 0, maxLen)
			inPlay(sd.Inum, 0)
		}
		s.FDs = append(s.FDs, sd)
	}

	pipeCursors := map[int64]spec.Probe{}
	for _, p := range pl.pipe.Eval(m) {
		id := p.Key[0]
		if id < 1 {
			continue
		}
		pipeCursors[id] = p
		pipesNeeded[id] = true
	}
	pipeVals := map[int64]map[int64]int64{}
	for _, p := range pl.piped.Eval(m) {
		id, seq := p.Key[0], p.Key[1]
		if id < 1 {
			continue
		}
		if pipeVals[id] == nil {
			pipeVals[id] = map[int64]int64{}
		}
		pipeVals[id][seq] = p.Field("val")
	}
	for id := range pipesNeeded {
		s.Pipes = append(s.Pipes, kernel.SetupPipe{
			ID: id, Items: spec.BacklogItems(pipeCursors[id], pipeVals[id], maxLen)})
	}

	anonVals := map[[2]int64]int64{}
	for _, p := range pl.anon.Eval(m) {
		anonVals[[2]int64{p.Key[0], p.Key[1]}] = p.Field("val")
	}
	for _, p := range pl.vma.Eval(m) {
		proc, page := p.Key[0], p.Key[1]
		if page < 0 {
			continue
		}
		sv := kernel.SetupVMA{
			Proc: int(proc), Page: page,
			Anon:     p.Bool("anon"),
			Writable: p.Bool("wr"),
		}
		if sv.Anon {
			sv.Val = anonVals[[2]int64{proc, page}]
		} else {
			sv.Inum = p.Field("inum")
			sv.Foff = spec.Clamp(p.Field("foff"), 0, maxLen)
			inPlay(sv.Inum, 0)
		}
		s.VMAs = append(s.VMAs, sv)
	}

	inums := make([]int64, 0, len(inodeLen))
	for inum := range inodeLen {
		inums = append(inums, inum)
	}
	sort.Slice(inums, func(i, j int) bool { return inums[i] < inums[j] })
	for _, inum := range inums {
		extra := 0
		if want, ok := inodeNlink[inum]; ok {
			if d := int(want) - visibleLinks[inum]; d > 0 {
				extra = d
			}
		}
		s.Inodes = append(s.Inodes, kernel.SetupInode{
			Inum:       inum,
			ExtraLinks: extra,
			Len:        inodeLen[inum],
			Pages:      pages[inum],
		})
	}
	sortSetup(&s)
	return s
}

// sortSetup fixes deterministic ordering for reproducible output.
func sortSetup(s *kernel.Setup) {
	sort.Slice(s.Files, func(i, j int) bool { return s.Files[i].Name < s.Files[j].Name })
	sort.Slice(s.FDs, func(i, j int) bool {
		a, b := s.FDs[i], s.FDs[j]
		if a.Proc != b.Proc {
			return a.Proc < b.Proc
		}
		return a.FD < b.FD
	})
	sort.Slice(s.Pipes, func(i, j int) bool { return s.Pipes[i].ID < s.Pipes[j].ID })
	sort.Slice(s.VMAs, func(i, j int) bool {
		a, b := s.VMAs[i], s.VMAs[j]
		if a.Proc != b.Proc {
			return a.Proc < b.Proc
		}
		return a.Page < b.Page
	})
}
