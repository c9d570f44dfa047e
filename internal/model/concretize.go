package model

import (
	"cmp"
	"slices"

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

// miner is the posix SetupMiner: one probe plan per dictionary of state,
// and the maps and slices a setup is mined into, cleared and reused from
// model to model. It owns every fs-specific field-name convention (len,
// nlink, off, head, tail, foff).
type miner struct {
	inode, fname, data, fd, pipe, piped, anon, vma spec.ProbePlan

	// inodeLen holds the length of each initial inode in play, inodeNlink
	// its probed link count and visibleLinks the names it has.
	inodeLen, inodeNlink map[int64]int64
	visibleLinks         map[int64]int
	// pages and pipeVals keep an inner map for every inode and pipe id
	// ever mined, emptied at each model: content by page, and by sequence.
	pages, pipeVals map[int64]map[int64]int64
	pipesNeeded     map[int64]bool
	pipeCursors     map[int64]spec.Probe
	anonVals        map[[2]int64]int64
	inums           []int64
	// items[i] backs the backlog of the i-th pipe a setup adds, and s
	// the setup's slices.
	items [][]int64
	s     kernel.Setup
}

// NewMiner returns a posix miner with its maps made.
func (posixSpec) NewMiner() spec.SetupMiner {
	return &miner{
		inodeLen: map[int64]int64{}, inodeNlink: map[int64]int64{}, visibleLinks: map[int64]int{},
		pages: map[int64]map[int64]int64{}, pipeVals: map[int64]map[int64]int64{},
		pipesNeeded: map[int64]bool{}, pipeCursors: map[int64]spec.Probe{}, anonVals: map[[2]int64]int64{},
	}
}

// Plan plans the eight dictionaries' probes of one path.
func (mn *miner) Plan(a, b spec.State) {
	sa, sb := a.(*state), b.(*state)
	mn.inode.Plan(sa.Inode, sb.Inode)
	mn.fname.Plan(sa.Fname, sb.Fname)
	mn.data.Plan(sa.Data, sb.Data)
	mn.fd.Plan(sa.FD, sb.FD)
	mn.pipe.Plan(sa.Pipe, sb.Pipe)
	mn.piped.Plan(sa.PipeD, sb.PipeD)
	mn.anon.Plan(sa.Anon, sb.Anon)
	mn.vma.Plan(sa.VMA, sb.VMA)
}

// Clear empties the plans and the probes the last setup kept.
func (mn *miner) Clear() {
	for _, pl := range [...]*spec.ProbePlan{&mn.inode, &mn.fname, &mn.data, &mn.fd, &mn.pipe, &mn.piped, &mn.anon, &mn.vma} {
		pl.Clear()
	}
	clear(mn.pipeCursors)
}

// inPlay puts an initial inode in the setup, with length ln unless it
// already is; numbers below 1 were allocated during the calls.
func (mn *miner) inPlay(inum, ln int64) bool {
	if inum < 1 {
		return false
	}
	if _, ok := mn.inodeLen[inum]; !ok {
		mn.inodeLen[inum] = ln
	}
	return true
}

// Setup reconstructs a concrete, realizable initial kernel state from the
// model assignment. Link counts are realized with hidden extra links (the
// paper's Figure 5 "__i0" trick) when the probed count exceeds the
// visible names.
func (mn *miner) Setup(m sym.Model) kernel.Setup {
	clear(mn.inodeLen)
	clear(mn.inodeNlink)
	clear(mn.visibleLinks)
	clear(mn.pipesNeeded)
	clear(mn.pipeCursors)
	clear(mn.anonVals)
	for _, pg := range mn.pages {
		clear(pg)
	}
	for _, vals := range mn.pipeVals {
		clear(vals)
	}
	s := kernel.Setup{Files: mn.s.Files[:0], Inodes: mn.s.Inodes[:0], FDs: mn.s.FDs[:0], Pipes: mn.s.Pipes[:0], VMAs: mn.s.VMAs[:0]}

	for _, p := range mn.inode.Eval(m) {
		if inum := p.Key[0]; mn.inPlay(inum, spec.Clamp(p.Field("len"), 0, maxLen)) {
			mn.inodeNlink[inum] = spec.Clamp(p.Field("nlink"), 0, maxInum)
		}
	}

	for _, p := range mn.fname.Eval(m) {
		name, inum := p.Key[0], p.Field("inum")
		if mn.inPlay(inum, 0) {
			s.Files = append(s.Files, kernel.SetupFile{Name: kernel.Fname(name), Inum: inum})
			mn.visibleLinks[inum]++
		}
	}

	for _, p := range mn.data.Eval(m) {
		inum, pg := p.Key[0], p.Key[1]
		if inum < 1 || pg < 0 {
			continue
		}
		ln, ok := mn.inodeLen[inum]
		if !ok {
			continue // content of a file not otherwise in play
		}
		if pg >= ln {
			continue // beyond EOF: invisible through the interface
		}
		pages := mn.pages[inum]
		if pages == nil {
			pages = map[int64]int64{}
			mn.pages[inum] = pages
		}
		pages[pg] = p.Field("val")
	}

	for _, p := range mn.fd.Eval(m) {
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
				mn.pipesNeeded[sd.PipeID] = true
			}
		} else {
			sd.Inum = p.Field("inum")
			sd.Off = spec.Clamp(p.Field("off"), 0, maxLen)
			mn.inPlay(sd.Inum, 0)
		}
		s.FDs = append(s.FDs, sd)
	}

	for _, p := range mn.pipe.Eval(m) {
		id := p.Key[0]
		if id < 1 {
			continue
		}
		mn.pipeCursors[id] = p
		mn.pipesNeeded[id] = true
	}
	for _, p := range mn.piped.Eval(m) {
		id, seq := p.Key[0], p.Key[1]
		if id < 1 {
			continue
		}
		vals := mn.pipeVals[id]
		if vals == nil {
			vals = map[int64]int64{}
			mn.pipeVals[id] = vals
		}
		vals[seq] = p.Field("val")
	}
	for id := range mn.pipesNeeded {
		i := len(s.Pipes)
		if i == len(mn.items) {
			mn.items = append(mn.items, nil)
		}
		mn.items[i] = spec.AppendBacklog(mn.items[i][:0], mn.pipeCursors[id], mn.pipeVals[id], maxLen)
		s.Pipes = append(s.Pipes, kernel.SetupPipe{ID: id, Items: spec.OrNil(mn.items[i])})
	}

	for _, p := range mn.anon.Eval(m) {
		mn.anonVals[[2]int64{p.Key[0], p.Key[1]}] = p.Field("val")
	}
	for _, p := range mn.vma.Eval(m) {
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
			sv.Val = mn.anonVals[[2]int64{proc, page}]
		} else {
			sv.Inum = p.Field("inum")
			sv.Foff = spec.Clamp(p.Field("foff"), 0, maxLen)
			mn.inPlay(sv.Inum, 0)
		}
		s.VMAs = append(s.VMAs, sv)
	}

	mn.inums = mn.inums[:0]
	for inum := range mn.inodeLen {
		mn.inums = append(mn.inums, inum)
	}
	slices.Sort(mn.inums)
	for _, inum := range mn.inums {
		extra := 0
		if want, ok := mn.inodeNlink[inum]; ok {
			if d := int(want) - mn.visibleLinks[inum]; d > 0 {
				extra = d
			}
		}
		in := kernel.SetupInode{Inum: inum, ExtraLinks: extra, Len: mn.inodeLen[inum]}
		if pages := mn.pages[inum]; len(pages) > 0 {
			in.Pages = pages
		}
		s.Inodes = append(s.Inodes, in)
	}
	sortSetup(&s)
	mn.s = s
	return kernel.Setup{
		Files: spec.OrNil(s.Files), Inodes: spec.OrNil(s.Inodes), FDs: spec.OrNil(s.FDs),
		Pipes: spec.OrNil(s.Pipes), VMAs: spec.OrNil(s.VMAs),
	}
}

// sortSetup fixes deterministic ordering for reproducible output. Every
// field's entries have distinct keys, so the order is total.
func sortSetup(s *kernel.Setup) {
	slices.SortFunc(s.Files, func(a, b kernel.SetupFile) int { return cmp.Compare(a.Name, b.Name) })
	slices.SortFunc(s.FDs, func(a, b kernel.SetupFD) int {
		return cmp.Or(cmp.Compare(a.Proc, b.Proc), cmp.Compare(a.FD, b.FD))
	})
	slices.SortFunc(s.Pipes, func(a, b kernel.SetupPipe) int { return cmp.Compare(a.ID, b.ID) })
	slices.SortFunc(s.VMAs, func(a, b kernel.SetupVMA) int {
		return cmp.Or(cmp.Compare(a.Proc, b.Proc), cmp.Compare(a.Page, b.Page))
	})
}
