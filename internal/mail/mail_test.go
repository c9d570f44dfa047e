package mail

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/kernel"
	"repro/internal/kernel/kerneltest"
	"repro/internal/kernel/memq"
	"repro/internal/mtrace"
)

func TestPipelineRunsBothConfigs(t *testing.T) {
	for _, commutative := range []bool{false, true} {
		s := NewServer(Config{Commutative: commutative})
		for core := 0; core < 3; core++ {
			for i := 0; i < 5; i++ {
				if err := s.DeliverOne(core); err != nil {
					t.Fatalf("commutative=%v core=%d iter=%d: %v", commutative, core, i, err)
				}
			}
		}
	}
}

func TestMailboxAccumulates(t *testing.T) {
	s := NewServer(Config{Commutative: true})
	// Three deliveries on one core create three distinct maildir files.
	for i := 0; i < 3; i++ {
		if err := s.DeliverOne(0); err != nil {
			t.Fatal(err)
		}
	}
	k := s.Kernel()
	for seq := int64(0); seq < 3; seq++ {
		box := nameFor(0, seq, roleBox)
		r := k.Exec(0, call(t, "stat", map[string]int64{"fname": box}))
		if r.Code != 0 || r.V3 != 1 {
			t.Errorf("maildir file %d: %v", seq, r)
		}
	}
}

func TestSpoolCleanedUp(t *testing.T) {
	s := NewServer(Config{Commutative: true})
	if err := s.DeliverOne(0); err != nil {
		t.Fatal(err)
	}
	k := s.Kernel()
	for _, role := range []int64{roleMsg, roleEnv} {
		nm := nameFor(0, 0, role)
		r := k.Exec(0, call(t, "stat", map[string]int64{"fname": nm}))
		if r.Code == 0 {
			t.Errorf("spool file role %d not removed", role)
		}
	}
}

func TestNotificationOrderingModes(t *testing.T) {
	// Ordered mode: one shared FIFO across cores. Unordered: per-core
	// queues. Both must deliver exactly the sent envelope.
	for _, commutative := range []bool{false, true} {
		s := NewServer(Config{Commutative: commutative})
		s.notify(1, 4242)
		env, ok := s.fetchNotification(1)
		if !ok || env != 4242 {
			t.Errorf("commutative=%v: fetch = %d,%v", commutative, env, ok)
		}
		if _, ok := s.fetchNotification(1); ok {
			t.Errorf("commutative=%v: queue should be empty", commutative)
		}
	}
}

func TestOrderedSocketIsFIFOAcrossCores(t *testing.T) {
	s := NewServer(Config{Commutative: false})
	s.notify(0, 1)
	s.notify(1, 2)
	if env, _ := s.fetchNotification(1); env != 1 {
		t.Errorf("ordered socket must deliver oldest first, got %d", env)
	}
	if env, _ := s.fetchNotification(0); env != 2 {
		t.Errorf("second fetch = %d", env)
	}
}

func TestUnorderedSocketIsPerCore(t *testing.T) {
	s := NewServer(Config{Commutative: true})
	s.notify(0, 1)
	if _, ok := s.fetchNotification(1); ok {
		t.Error("core 1 must not see core 0's local queue in this model")
	}
	if env, ok := s.fetchNotification(0); !ok || env != 1 {
		t.Errorf("core 0 fetch = %d,%v", env, ok)
	}
}

func TestNameUniqueness(t *testing.T) {
	seen := map[int64]bool{}
	for core := 0; core < 4; core++ {
		for seq := int64(0); seq < 4; seq++ {
			for _, role := range []int64{roleMsg, roleEnv, roleBox} {
				n := nameFor(core, seq, role)
				if seen[n] {
					t.Fatalf("name collision at core=%d seq=%d role=%d", core, seq, role)
				}
				seen[n] = true
			}
		}
	}
}

func call(t *testing.T, op string, args map[string]int64) kernel.Call {
	t.Helper()
	return kernel.Call{Op: op, Args: args}
}

// The Figure 7(c) server's sockets are what `-spec queue` certifies: from
// empty queues, two cores' notifications conflict on exactly the cells
// memq's send||send conflicts on, label aside, and in the commutative
// configuration on none, like send_any||send_any.
func TestSocketsAreTheQueueSpecs(t *testing.T) {
	for _, tc := range []struct {
		commutative bool
		op          string
	}{{false, "send"}, {true, "send_any"}} {
		res, _ := kerneltest.Check(func() kernel.Kernel { return memq.New() }, kernel.TestCase{ID: tc.op, Setup: &memq.Setup{}, Calls: [2]kernel.Call{
			call(t, tc.op, map[string]int64{"val": 1}), call(t, tc.op, map[string]int64{"val": 2}),
		}})
		want := res.Conflicts
		s := NewServer(Config{Commutative: tc.commutative})
		s.Memory().Start()
		s.notify(0, 1)
		s.notify(1, 2)
		s.Memory().Stop()
		got := s.Memory().Conflicts()
		if tc.commutative {
			if len(got) != 0 || len(want) != 0 {
				t.Errorf("commutative notify||notify conflicts on %v, memq send_any||send_any on %v", got, want)
			}
			continue
		}
		if len(want) == 0 || !reflect.DeepEqual(unlabeled(t, got, "sock"), unlabeled(t, want, "mq")) {
			t.Errorf("regular notify||notify conflicts on %v, memq send||send on %v", got, want)
		}
	}
}

// unlabeled strips the queue label from every conflicting cell's name.
func unlabeled(t *testing.T, cs []mtrace.Conflict, label string) []mtrace.Conflict {
	t.Helper()
	out := make([]mtrace.Conflict, len(cs))
	for i, c := range cs {
		if !strings.HasPrefix(c.CellName, label+".") {
			t.Errorf("conflict on %s, outside the queue %s", c.CellName, label)
		}
		out[i] = c
		out[i].CellName = strings.TrimPrefix(c.CellName, label)
	}
	return out
}
