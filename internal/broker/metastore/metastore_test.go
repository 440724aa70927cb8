package metastore

import (
	"testing"
	"time"

	"remotedb/internal/sim"
)

// run executes fn inside a simulation process and drives it to completion.
func run(t *testing.T, fn func(p *sim.Proc, s *Store)) {
	t.Helper()
	k := newKernel(t, 1)
	s := New(k, 10*time.Microsecond)
	k.Go("test", func(p *sim.Proc) { fn(p, s) })
	k.Run(0)
}

func TestCreateGetSetDelete(t *testing.T) {
	run(t, func(p *sim.Proc, s *Store) {
		if err := s.Create(p, "/a", []byte("1"), 0); err != nil {
			t.Fatal(err)
		}
		data, ver, err := s.Get(p, "/a")
		if err != nil || string(data) != "1" || ver != 0 {
			t.Fatalf("get = %q v%d err=%v", data, ver, err)
		}
		ver, err = s.Set(p, "/a", []byte("2"), 0)
		if err != nil || ver != 1 {
			t.Fatalf("set v=%d err=%v", ver, err)
		}
		if err := s.Delete(p, "/a", 1); err != nil {
			t.Fatal(err)
		}
		if s.Exists(p, "/a") {
			t.Fatal("node should be gone")
		}
	})
}

func TestVersionedCAS(t *testing.T) {
	run(t, func(p *sim.Proc, s *Store) {
		s.Create(p, "/a", []byte("1"), 0)
		if _, err := s.Set(p, "/a", []byte("x"), 5); err != ErrBadVersion {
			t.Fatalf("stale set: %v", err)
		}
		if err := s.Delete(p, "/a", 7); err != ErrBadVersion {
			t.Fatalf("stale delete: %v", err)
		}
		if _, err := s.Set(p, "/a", []byte("y"), -1); err != nil {
			t.Fatalf("unconditional set: %v", err)
		}
	})
}

func TestCreateErrors(t *testing.T) {
	run(t, func(p *sim.Proc, s *Store) {
		if err := s.Create(p, "no-slash", nil, 0); err != ErrBadPath {
			t.Fatalf("bad path: %v", err)
		}
		if err := s.Create(p, "/a/b", nil, 0); err != ErrNoNode {
			t.Fatalf("orphan create: %v", err)
		}
		s.Create(p, "/a", nil, 0)
		if err := s.Create(p, "/a", nil, 0); err != ErrNodeExists {
			t.Fatalf("duplicate create: %v", err)
		}
	})
}

func TestDeleteNonEmpty(t *testing.T) {
	run(t, func(p *sim.Proc, s *Store) {
		s.Create(p, "/a", nil, 0)
		s.Create(p, "/a/b", nil, 0)
		if err := s.Delete(p, "/a", -1); err != ErrNotEmpty {
			t.Fatalf("delete with children: %v", err)
		}
	})
}

func TestChildren(t *testing.T) {
	run(t, func(p *sim.Proc, s *Store) {
		s.Create(p, "/a", nil, 0)
		s.Create(p, "/a/z", nil, 0)
		s.Create(p, "/a/b", nil, 0)
		s.Create(p, "/a/b/deep", nil, 0)
		kids, err := s.Children(p, "/a")
		if err != nil {
			t.Fatal(err)
		}
		if len(kids) != 2 || kids[0] != "b" || kids[1] != "z" {
			t.Fatalf("children = %v", kids)
		}
		if _, err := s.Children(p, "/nope"); err != ErrNoNode {
			t.Fatalf("children of missing node: %v", err)
		}
	})
}

func TestEphemeralNodesDieWithSession(t *testing.T) {
	run(t, func(p *sim.Proc, s *Store) {
		sess := s.NewSession(p)
		s.Create(p, "/e", []byte("x"), sess)
		s.Create(p, "/persistent", nil, 0)
		if err := s.CloseSession(p, sess); err != nil {
			t.Fatal(err)
		}
		if s.Exists(p, "/e") {
			t.Fatal("ephemeral node survived session close")
		}
		if !s.Exists(p, "/persistent") {
			t.Fatal("persistent node deleted")
		}
		if err := s.CloseSession(p, sess); err != ErrSessionGone {
			t.Fatalf("double close: %v", err)
		}
	})
}

func TestEphemeralWithDeadSession(t *testing.T) {
	run(t, func(p *sim.Proc, s *Store) {
		sess := s.NewSession(p)
		s.CloseSession(p, sess)
		if err := s.Create(p, "/e", nil, sess); err != ErrNoSession {
			t.Fatalf("create with dead session: %v", err)
		}
	})
}

func TestWatchFires(t *testing.T) {
	run(t, func(p *sim.Proc, s *Store) {
		var events []Event
		s.Watch("/w", func(ev Event) { events = append(events, ev) })
		s.Create(p, "/w", nil, 0)
		s.Set(p, "/w", []byte("v"), -1)
		s.Delete(p, "/w", -1)
		if len(events) != 3 {
			t.Fatalf("events = %v", events)
		}
		if events[2].Deleted != true || events[0].Deleted || events[1].Deleted {
			t.Fatalf("deletion flags wrong: %v", events)
		}
	})
}

func TestRPCCostCharged(t *testing.T) {
	k := newKernel(t, 1)
	s := New(k, 10*time.Microsecond)
	var end time.Duration
	k.Go("t", func(p *sim.Proc) {
		s.Create(p, "/a", nil, 0)
		s.Get(p, "/a")
		end = p.Now()
	})
	k.Run(0)
	if end != 20*time.Microsecond {
		t.Fatalf("two ops took %v, want 20µs", end)
	}
}
