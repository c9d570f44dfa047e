package eval

import (
	"io"
	"strings"
	"testing"

	"repro/internal/mail"
)

var testCores = []int{1, 4, 16}

// Figure 7(a): fstatx scales near-linearly; fstat with any st_nlink
// representation collapses as link/unlink cores grow.
func TestStatbenchShape(t *testing.T) {
	fx := Statbench(StatFstatx, testCores)
	rc := Statbench(StatRefcache, testCores)
	sh := Statbench(StatShared, testCores)

	if fx.PerSec[2] < fx.PerSec[0]*0.5 {
		t.Errorf("fstatx per-core throughput should stay near flat: %v", fx.PerSec)
	}
	if rc.PerSec[2] > fx.PerSec[2]*0.5 {
		t.Errorf("Refcache fstat at 16 cores should be far below fstatx: %v vs %v",
			rc.PerSec[2], fx.PerSec[2])
	}
	if sh.PerSec[2] > fx.PerSec[2]*0.5 {
		t.Errorf("shared-count fstat at 16 cores should be far below fstatx: %v vs %v",
			sh.PerSec[2], fx.PerSec[2])
	}
	// §7.2: with a shared count, fstat outperforms the Refcache variant
	// on a single core (no reconciliation scan).
	if sh.PerSec[0] < rc.PerSec[0] {
		t.Errorf("shared-count fstat should beat Refcache fstat at 1 core: %v vs %v",
			sh.PerSec[0], rc.PerSec[0])
	}
}

// Figure 7(b): O_ANYFD scales; lowest-FD collapses.
func TestOpenbenchShape(t *testing.T) {
	any := Openbench(true, testCores)
	low := Openbench(false, testCores)
	if any.PerSec[2] < any.PerSec[0]*0.5 {
		t.Errorf("any-FD throughput should stay near flat: %v", any.PerSec)
	}
	if low.PerSec[2] > any.PerSec[2]*0.5 {
		t.Errorf("lowest-FD at 16 cores should collapse: %v vs any-FD %v",
			low.PerSec[2], any.PerSec[2])
	}
}

// Figure 7(c): commutative APIs scale; regular APIs collapse.
func TestMailbenchShape(t *testing.T) {
	com := Mailbench(true, testCores)
	reg := Mailbench(false, testCores)
	if com.PerSec[2] < com.PerSec[0]*0.4 {
		t.Errorf("commutative-API mail throughput should scale: %v", com.PerSec)
	}
	if reg.PerSec[2] > com.PerSec[2]*0.6 {
		t.Errorf("regular-API mail at 16 cores should be well below commutative: %v vs %v",
			reg.PerSec[2], com.PerSec[2])
	}
}

func TestMailServerSemantics(t *testing.T) {
	for _, commutative := range []bool{false, true} {
		s := mail.NewServer(mail.Config{Commutative: commutative})
		for core := 0; core < 4; core++ {
			for i := 0; i < 3; i++ {
				if err := s.DeliverOne(core); err != nil {
					t.Fatalf("commutative=%v core=%d iter=%d: %v", commutative, core, i, err)
				}
			}
		}
	}
}

// The commutative-API pipeline must be conflict-free across cores; the
// regular-API pipeline must not be.
func TestMailPipelineConflicts(t *testing.T) {
	for _, commutative := range []bool{false, true} {
		s := mail.NewServer(mail.Config{Commutative: commutative})
		for core := 0; core < 2; core++ {
			if err := s.DeliverOne(core); err != nil {
				t.Fatal(err)
			}
		}
		s.Memory().Start()
		for core := 0; core < 2; core++ {
			if err := s.DeliverOne(core); err != nil {
				t.Fatal(err)
			}
		}
		s.Memory().Stop()
		free := s.Memory().ConflictFree()
		if commutative && !free {
			t.Errorf("commutative pipeline conflicts: %v", s.Memory().Conflicts())
		}
		if !commutative && free {
			t.Error("regular pipeline unexpectedly conflict-free")
		}
	}
}

func TestFormatCurves(t *testing.T) {
	c := Curve{Name: "x", Cores: []int{1, 2}, PerSec: []float64{1.5, 1.4}}
	out := formatCurves("title", []Curve{c})
	if !strings.Contains(out, "title") || !strings.Contains(out, "1.50") {
		t.Errorf("formatCurves output:\n%s", out)
	}
	if len(DefaultCores) == 0 || DefaultCores[len(DefaultCores)-1] != 80 {
		t.Errorf("DefaultCores = %v, want the paper's x-axis, ending at 80", DefaultCores)
	}
	if err := Figure7(io.Discard, "fig6", nil); err == nil {
		t.Error("Figure7 rendered an unknown panel")
	}
}
