package model

import (
	"cmp"
	"slices"

	"repro/internal/kernel"
	"repro/internal/kernel/unix"
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

// miner is the posix SetupMiner: the maps and slices a setup is mined
// into, cleared and reused from model to model. It owns every fs-specific
// field-name convention (len, nlink, off, head, tail, foff).
type miner struct {
	// inodeLen holds the length of each initial inode in play, inodeNlink
	// its probed link count and visibleLinks the names it has.
	inodeLen, inodeNlink map[int64]int64
	visibleLinks         map[int64]int
	// pages and pipeVals keep an inner map for every inode and pipe id
	// ever mined, emptied at each model: content by page, and by sequence.
	pages, pipeVals map[int64]map[int64]int64
	pipesNeeded     map[int64]bool
	// pipeCursors holds each probed pipe's cursors, emptied once the
	// backlogs are built, so no probe outlives a Setup.
	pipeCursors map[int64]spec.Probe
	anonVals    map[[2]int64]int64
	inums       []int64
	// items[i] backs the backlog of the i-th pipe a setup adds, s the
	// setup's slices, and out the Setup it returns, over them.
	items  [][]int64
	s, out unix.Setup
}

// NewMiner returns a posix miner with its maps made.
func (posixSpec) NewMiner() spec.SetupMiner {
	return &miner{
		inodeLen: map[int64]int64{}, inodeNlink: map[int64]int64{}, visibleLinks: map[int64]int{},
		pages: map[int64]map[int64]int64{}, pipeVals: map[int64]map[int64]int64{},
		pipesNeeded: map[int64]bool{}, pipeCursors: map[int64]spec.Probe{}, anonVals: map[[2]int64]int64{},
	}
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
func (mn *miner) Setup(m sym.Model, probes *spec.Probes) kernel.Setup {
	clear(mn.inodeLen)
	clear(mn.inodeNlink)
	clear(mn.visibleLinks)
	clear(mn.pipesNeeded)
	clear(mn.anonVals)
	for _, pg := range mn.pages {
		clear(pg)
	}
	for _, vals := range mn.pipeVals {
		clear(vals)
	}
	s := unix.Setup{Files: mn.s.Files[:0], Inodes: mn.s.Inodes[:0], FDs: mn.s.FDs[:0], Pipes: mn.s.Pipes[:0], VMAs: mn.s.VMAs[:0]}

	for _, p := range probes.Eval("inode", m) {
		if inum := p.Key[0]; mn.inPlay(inum, spec.Clamp(p.Field("len"), 0, maxLen)) {
			mn.inodeNlink[inum] = spec.Clamp(p.Field("nlink"), 0, maxInum)
		}
	}

	for _, p := range probes.Eval("fname", m) {
		name, inum := p.Key[0], p.Field("inum")
		if mn.inPlay(inum, 0) {
			s.Files = append(s.Files, unix.SetupFile{Name: name, Inum: inum})
			mn.visibleLinks[inum]++
		}
	}

	for _, p := range probes.Eval("data", m) {
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

	for _, p := range probes.Eval("fd", m) {
		proc, fd := int(p.Key[0]), p.Key[1]
		if fd < 0 {
			continue
		}
		sd := unix.SetupFD{Proc: proc, FD: fd}
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

	for _, p := range probes.Eval("pipe", m) {
		id := p.Key[0]
		if id < 1 {
			continue
		}
		mn.pipeCursors[id] = p
		mn.pipesNeeded[id] = true
	}
	for _, p := range probes.Eval("piped", m) {
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
		s.Pipes = append(s.Pipes, unix.SetupPipe{ID: id, Items: spec.OrNil(mn.items[i])})
	}
	clear(mn.pipeCursors)

	for _, p := range probes.Eval("anon", m) {
		mn.anonVals[[2]int64{p.Key[0], p.Key[1]}] = p.Field("val")
	}
	for _, p := range probes.Eval("vma", m) {
		proc, page := p.Key[0], p.Key[1]
		if page < 0 {
			continue
		}
		sv := unix.SetupVMA{
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
		in := unix.SetupInode{Inum: inum, ExtraLinks: extra, Len: mn.inodeLen[inum]}
		if pages := mn.pages[inum]; len(pages) > 0 {
			in.Pages = pages
		}
		s.Inodes = append(s.Inodes, in)
	}
	sortSetup(&s)
	mn.s = s
	mn.out = unix.Setup{
		Files: spec.OrNil(s.Files), Inodes: spec.OrNil(s.Inodes), FDs: spec.OrNil(s.FDs),
		Pipes: spec.OrNil(s.Pipes), VMAs: spec.OrNil(s.VMAs),
	}
	return &mn.out
}

// sortSetup fixes deterministic ordering for reproducible output. Every
// field's entries have distinct keys, so the order is total.
func sortSetup(s *unix.Setup) {
	slices.SortFunc(s.Files, func(a, b unix.SetupFile) int { return cmp.Compare(a.Name, b.Name) })
	slices.SortFunc(s.FDs, func(a, b unix.SetupFD) int {
		return cmp.Or(cmp.Compare(a.Proc, b.Proc), cmp.Compare(a.FD, b.FD))
	})
	slices.SortFunc(s.Pipes, func(a, b unix.SetupPipe) int { return cmp.Compare(a.ID, b.ID) })
	slices.SortFunc(s.VMAs, func(a, b unix.SetupVMA) int {
		return cmp.Or(cmp.Compare(a.Proc, b.Proc), cmp.Compare(a.Page, b.Page))
	})
}
