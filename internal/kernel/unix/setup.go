package unix

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"

	"repro/internal/kernel"
)

// Setup is the posix spec's initial state: the tables Apply builds a
// kernel of either Design from.
type Setup struct {
	Files  []SetupFile
	Inodes []SetupInode
	FDs    []SetupFD
	Pipes  []SetupPipe
	VMAs   []SetupVMA
}

// SetupFile creates one directory entry in the initial state, the name
// kernel.Fname(Name). Multiple entries may share an Inum to set up hard
// links.
type SetupFile struct {
	Name int64
	Inum int64
}

// SetupInode fixes an inode's initial metadata and content.
type SetupInode struct {
	Inum int64
	// ExtraLinks adds hidden hard links (names outside the test's name
	// space) so the link count can exceed the visible name count, the
	// trick Figure 5 of the paper uses with "__i0".
	ExtraLinks int
	// Len is the file length in pages.
	Len int64
	// Pages maps page index -> content token for pages with fixed
	// initial content.
	Pages map[int64]int64
}

// SetupFD opens a descriptor in a process's table before the test runs.
type SetupFD struct {
	Proc int
	FD   int64
	// Pipe selects a pipe descriptor (PipeID, WriteEnd) instead of a
	// file descriptor (Inum, Off).
	Pipe     bool
	PipeID   int64
	WriteEnd bool
	Inum     int64
	Off      int64
}

// SetupPipe creates a pipe with queued content.
type SetupPipe struct {
	ID int64
	// Items are the queued page tokens, oldest first.
	Items []int64
}

// SetupVMA maps one page of a process's address space.
type SetupVMA struct {
	Proc int
	Page int64
	Anon bool
	// Val is the anonymous page's initial content token.
	Val      int64
	Writable bool
	Inum     int64
	Foff     int64
}

// Fingerprint implements kernel.Setup.
func (s *Setup) Fingerprint() string { return string(s.AppendFingerprint(nil)) }

// AppendFingerprint implements kernel.Setup.
func (s *Setup) AppendFingerprint(dst []byte) []byte {
	for _, f := range s.Files {
		dst = strconv.AppendInt(append(dst, "Ff"...), f.Name, 10)
		dst = append(strconv.AppendInt(append(dst, '='), f.Inum, 10), ';')
	}
	for _, in := range s.Inodes {
		dst = strconv.AppendInt(append(dst, 'I'), in.Inum, 10)
		dst = strconv.AppendInt(append(dst, ",x"...), int64(in.ExtraLinks), 10)
		dst = strconv.AppendInt(append(dst, ",l"...), in.Len, 10)
		if len(in.Pages) > 0 {
			var buf [kernel.MaxFilePages]int64
			idxs := buf[:0]
			for idx := range in.Pages {
				idxs = append(idxs, idx)
			}
			slices.Sort(idxs)
			for _, idx := range idxs {
				dst = strconv.AppendInt(append(dst, ",p"...), idx, 10)
				dst = strconv.AppendInt(append(dst, '='), in.Pages[idx], 10)
			}
		}
		dst = append(dst, ';')
	}
	for _, fd := range s.FDs {
		dst = strconv.AppendInt(append(dst, 'D'), int64(fd.Proc), 10)
		dst = strconv.AppendInt(append(dst, ','), fd.FD, 10)
		if fd.Pipe {
			dst = strconv.AppendInt(append(dst, ",pipe"...), fd.PipeID, 10)
			dst = strconv.AppendBool(append(dst, ",w"...), fd.WriteEnd)
		} else {
			dst = strconv.AppendInt(append(dst, ",i"...), fd.Inum, 10)
			dst = strconv.AppendInt(append(dst, ",o"...), fd.Off, 10)
		}
		dst = append(dst, ';')
	}
	for _, p := range s.Pipes {
		dst = kernel.AppendItems(strconv.AppendInt(append(dst, 'P'), p.ID, 10), p.Items)
	}
	for _, v := range s.VMAs {
		dst = strconv.AppendInt(append(dst, 'V'), int64(v.Proc), 10)
		dst = strconv.AppendInt(append(dst, ','), v.Page, 10)
		dst = strconv.AppendBool(append(dst, ",a"...), v.Anon)
		dst = strconv.AppendInt(append(dst, ",v"...), v.Val, 10)
		dst = strconv.AppendBool(append(dst, ",w"...), v.Writable)
		dst = strconv.AppendInt(append(dst, ",i"...), v.Inum, 10)
		dst = strconv.AppendInt(append(dst, ",o"...), v.Foff, 10)
		dst = append(dst, ';')
	}
	return dst
}

// Clone implements kernel.Setup.
func (s *Setup) Clone() kernel.Setup {
	c := &Setup{
		Files:  slices.Clone(s.Files),
		Inodes: slices.Clone(s.Inodes),
		FDs:    slices.Clone(s.FDs),
		Pipes:  slices.Clone(s.Pipes),
		VMAs:   slices.Clone(s.VMAs),
	}
	for i := range c.Inodes {
		c.Inodes[i].Pages = maps.Clone(c.Inodes[i].Pages)
	}
	for i := range c.Pipes {
		c.Pipes[i].Items = slices.Clone(c.Pipes[i].Items)
	}
	return c
}

// Admit implements kernel.Setup: processes are 0 or 1 wherever one is
// named, file lengths, pages and mapped offsets are within
// kernel.MaxFilePages, mapped pages and backlogs within kernel.MaxExtent,
// and every table is within kernel.MaxExtent rows and names each file,
// inode, descriptor, pipe and mapped page once.
func (s *Setup) Admit() error {
	var a kernel.Admission
	for _, in := range s.Inodes {
		a.Within("inode length", 0, in.Len, kernel.MaxFilePages)
		for pg := range in.Pages {
			a.Within("inode page", 0, pg, kernel.MaxFilePages-1)
		}
	}
	for _, fd := range s.FDs {
		a.Proc("a setup descriptor", fd.Proc)
	}
	for _, v := range s.VMAs {
		a.Proc("a setup mapping", v.Proc)
		a.Within("mapped page", 0, v.Page, kernel.MaxExtent)
		a.Within("mapped file offset", 0, v.Foff, kernel.MaxFilePages-1)
	}
	for _, p := range s.Pipes {
		a.Within("pipe backlog", 0, int64(len(p.Items)), kernel.MaxExtent)
	}
	kernel.Rows(&a, "file", s.Files, func(f SetupFile) int64 { return f.Name })
	kernel.Rows(&a, "inode", s.Inodes, func(in SetupInode) int64 { return in.Inum })
	kernel.Rows(&a, "descriptor (process, fd)", s.FDs, func(fd SetupFD) [2]int64 { return [2]int64{int64(fd.Proc), fd.FD} })
	kernel.Rows(&a, "pipe", s.Pipes, func(p SetupPipe) int64 { return p.ID })
	kernel.Rows(&a, "mapped page (process, page)", s.VMAs, func(v SetupVMA) [2]int64 { return [2]int64{int64(v.Proc), v.Page} })
	return a.Err()
}

// String implements kernel.Setup.
func (s *Setup) String() string {
	var b strings.Builder
	for _, ino := range s.Inodes {
		fmt.Fprintf(&b, "inode %d: len=%d extra_links=%d pages=%v\n", ino.Inum, ino.Len, ino.ExtraLinks, ino.Pages)
	}
	for _, f := range s.Files {
		fmt.Fprintf(&b, "file %s -> inode %d\n", kernel.Fname(f.Name), f.Inum)
	}
	for _, p := range s.Pipes {
		fmt.Fprintf(&b, "pipe %d: %v\n", p.ID, p.Items)
	}
	for _, fd := range s.FDs {
		if fd.Pipe {
			fmt.Fprintf(&b, "fd p%d:%d -> pipe %d (write=%v)\n", fd.Proc, fd.FD, fd.PipeID, fd.WriteEnd)
		} else {
			fmt.Fprintf(&b, "fd p%d:%d -> inode %d off=%d\n", fd.Proc, fd.FD, fd.Inum, fd.Off)
		}
	}
	for _, v := range s.VMAs {
		fmt.Fprintf(&b, "vma p%d:page%d anon=%v wr=%v inode=%d foff=%d val=%d\n",
			v.Proc, v.Page, v.Anon, v.Writable, v.Inum, v.Foff, v.Val)
	}
	return strings.TrimSuffix(b.String(), "\n")
}
