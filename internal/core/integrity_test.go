package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"remotedb/internal/sim"
	"remotedb/internal/vfs"
)

// integrityCfg returns a Config with framed blocks on and k replicas.
func integrityCfg(k int) Config {
	cfg := DefaultConfig()
	cfg.Integrity = true
	cfg.Replication = k
	return cfg
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*31 + seed
	}
	return b
}

func TestFramedRoundTripAndZeroFill(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		e := newEnv(p, 2, 8, integrityCfg(1))
		f, err := e.fs.Create(p, "f", 3<<20)
		if err != nil {
			t.Error(err)
			return
		}
		f.OpenConn(p)
		// Unaligned write straddling a stripe boundary exercises the
		// read-merge-write partial-block path.
		data := pattern(300_000, 7)
		off := f.stripeCap - 12_345
		if err := f.WriteAt(p, data, off); err != nil {
			t.Error(err)
			return
		}
		got := make([]byte, len(data))
		if err := f.ReadAt(p, got, off); err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(data, got) {
			t.Error("framed round trip corrupted")
		}
		// Untouched ranges read back as zeros without touching the wire.
		hole := make([]byte, 8192)
		reads := e.fs.Client.Reads
		if err := f.ReadAt(p, hole, 2<<20); err != nil {
			t.Error(err)
			return
		}
		for _, b := range hole {
			if b != 0 {
				t.Error("hole read returned non-zero bytes")
				break
			}
		}
		if e.fs.Client.Reads != reads {
			t.Error("hole read issued remote transfers")
		}
	})
	k.Run(time.Minute)
}

func TestReplicasPlacedOnDistinctDonors(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		e := newEnv(p, 3, 8, integrityCfg(2))
		f, err := e.fs.Create(p, "f", 2<<20)
		if err != nil {
			t.Error(err)
			return
		}
		for s := 0; s < f.Stripes(); s++ {
			srv := f.StripeServers(s)
			if len(srv) != 2 || srv[0] == srv[1] {
				t.Errorf("stripe %d replicas share a donor: %v", s, srv)
			}
		}
	})
	k.Run(time.Minute)
}

func TestReplicationNeedsDistinctDonors(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		// One donor, two replicas wanted: anti-affinity must refuse
		// rather than co-locate.
		e := newEnv(p, 1, 16, integrityCfg(2))
		if _, err := e.fs.Create(p, "f", 1<<20); !errors.Is(err, ErrNoLeases) {
			t.Errorf("create with one donor and K=2: %v", err)
		}
		if e.b.ActiveLeases() != 0 {
			t.Errorf("failed create leaked %d leases", e.b.ActiveLeases())
		}
	})
	k.Run(time.Minute)
}

func TestBitFlipDetectedAndRepairedFromReplica(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		e := newEnv(p, 2, 8, integrityCfg(2))
		f, _ := e.fs.Create(p, "f", 1<<20)
		f.OpenConn(p)
		data := pattern(64<<10, 3)
		f.WriteAt(p, data, 0)
		// Flip a bit in a written block of replica 0.
		if !f.InjectBlockFlip(2, 0) {
			t.Error("injection failed")
			return
		}
		got := make([]byte, len(data))
		if err := f.ReadAt(p, got, 0); err != nil {
			t.Errorf("read over corrupt primary: %v", err)
			return
		}
		if !bytes.Equal(data, got) {
			t.Error("silently wrong bytes served past a bit flip")
		}
		if e.fs.Corruptions.N == 0 {
			t.Error("corruption not detected")
		}
		if e.fs.Failovers.N == 0 {
			t.Error("read did not fail over to the healthy replica")
		}
		if e.fs.Repairs.N == 0 {
			t.Error("corrupt copy not repaired in place")
		}
		// The repaired primary now verifies again: another read must not
		// re-detect.
		n := e.fs.Corruptions.N
		if err := f.ReadAt(p, got, 0); err != nil {
			t.Error(err)
		}
		if e.fs.Corruptions.N != n {
			t.Error("repair did not stick")
		}
	})
	k.Run(time.Minute)
}

func TestTornWriteWithoutReplicaFailsLoud(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		e := newEnv(p, 2, 8, integrityCfg(1))
		f, _ := e.fs.Create(p, "f", 1<<20)
		f.OpenConn(p)
		data := pattern(32<<10, 9)
		f.WriteAt(p, data, 0)
		if !f.InjectBlockTear(1, 0) {
			t.Error("injection failed")
			return
		}
		got := make([]byte, len(data))
		err := f.ReadAt(p, got, 0)
		if !errors.Is(err, vfs.ErrCorrupt) {
			t.Errorf("read of torn block: %v, want ErrCorrupt", err)
		}
		if !f.BlockPoisoned(1) {
			t.Error("unrepairable block not poisoned")
		}
		// Blocks outside the torn one still serve, and a fresh write
		// heals the poisoned block.
		if err := f.ReadAt(p, got[:4096], 0); err != nil {
			t.Errorf("read of clean block next to torn one: %v", err)
		}
		if err := f.WriteAt(p, data[4096:8192], 4096); err != nil {
			t.Errorf("overwrite of poisoned block: %v", err)
		}
		if err := f.ReadAt(p, got[:4096], 4096); err != nil {
			t.Errorf("read after healing overwrite: %v", err)
		}
		if !bytes.Equal(got[:4096], data[4096:8192]) {
			t.Error("healed block content wrong")
		}
	})
	k.Run(time.Minute)
}

func TestStaleReplicaResurrectionCaughtByGeneration(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		e := newEnv(p, 2, 8, integrityCfg(2))
		f, _ := e.fs.Create(p, "f", 1<<20)
		f.OpenConn(p)
		old := pattern(4096, 1)
		f.WriteAt(p, old, 0)
		snap := f.SnapshotBlockFrame(0, 0)
		if snap == nil {
			t.Error("snapshot failed")
			return
		}
		fresh := pattern(4096, 2)
		f.WriteAt(p, fresh, 0)
		// Resurrect the stale frame on replica 0: its checksum is
		// internally consistent, only the generation betrays it.
		if !f.RestoreBlockFrame(0, 0, snap) {
			t.Error("restore failed")
			return
		}
		got := make([]byte, 4096)
		if err := f.ReadAt(p, got, 0); err != nil {
			t.Errorf("read over stale primary: %v", err)
			return
		}
		if !bytes.Equal(fresh, got) {
			t.Error("stale bytes served: generation stamp missed the resurrection")
		}
		if e.fs.Corruptions.N == 0 || e.fs.Repairs.N == 0 {
			t.Errorf("stale frame not detected/repaired: corruptions=%d repairs=%d",
				e.fs.Corruptions.N, e.fs.Repairs.N)
		}
	})
	k.Run(time.Minute)
}

func TestRevocationWithReplicaHasNoDegradedWindow(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		e := newEnv(p, 3, 8, integrityCfg(2))
		salvages := 0
		e.fs.Salvage = func(sp *sim.Proc, sf *File, off, n int64) error {
			salvages++
			return nil
		}
		f, _ := e.fs.Create(p, "f", 1<<20)
		f.SetSalvage(e.fs.Salvage)
		f.OpenConn(p)
		data := pattern(256<<10, 5)
		f.WriteAt(p, data, 0)
		// Revoke the primary lease of stripe 0.
		e.b.Revoke(f.LeaseIDs()[0])
		// The very next read succeeds from the surviving replica — no
		// degraded window, no error, no salvage.
		got := make([]byte, len(data))
		if err := f.ReadAt(p, got, 0); err != nil {
			t.Errorf("read during replica loss: %v", err)
			return
		}
		if !bytes.Equal(data, got) {
			t.Error("wrong bytes during failover")
		}
		// Writes also keep working (fan out to survivors).
		if err := f.WriteAt(p, data[:8192], 0); err != nil {
			t.Errorf("write during replica loss: %v", err)
		}
		// Background rebuild restores the replication factor.
		p.Sleep(2 * time.Second)
		if f.Degraded() {
			t.Error("replica not rebuilt")
		}
		if e.fs.ReplicaRepairs == 0 {
			t.Error("no replica repair recorded")
		}
		if salvages != 0 {
			t.Errorf("salvage ran %d times, want 0 (replica repair needs no salvage)", salvages)
		}
		if e.fs.LostStripes != 0 {
			t.Errorf("lost-stripe events: %d, want 0", e.fs.LostStripes)
		}
		// Anti-affinity holds for the rebuilt replica too.
		srv := f.StripeServers(0)
		if srv[0] == srv[1] {
			t.Errorf("rebuilt replica shares a donor: %v", srv)
		}
		// And the rebuilt copy is correct.
		if err := f.ReadAt(p, got, 0); err != nil {
			t.Error(err)
		}
		if !bytes.Equal(data, got) {
			t.Error("rebuilt replica serves wrong bytes")
		}
	})
	k.Run(time.Minute)
}

func TestScrubberFindsAndRepairsLatentCorruption(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		cfg := integrityCfg(2)
		cfg.ScrubEvery = 50 * time.Millisecond
		e := newEnv(p, 2, 8, cfg)
		f, _ := e.fs.Create(p, "f", 1<<20)
		f.OpenConn(p)
		data := pattern(128<<10, 11)
		f.WriteAt(p, data, 0)
		// Corrupt a *secondary* copy: ordinary reads are served by the
		// primary and would never notice — only the scrubber looks here.
		if !f.InjectBlockFlip(4, 1) {
			t.Error("injection failed")
			return
		}
		// Let the scrubber sweep every stripe at least once.
		p.Sleep(time.Duration(f.Stripes()+2) * cfg.ScrubEvery * 2)
		if e.fs.Corruptions.N == 0 {
			t.Error("scrubber missed latent corruption on the secondary")
		}
		if e.fs.Repairs.N == 0 {
			t.Error("scrubber did not repair the secondary")
		}
		if e.fs.ScrubChecked.N == 0 || e.fs.ScrubSweeps == 0 {
			t.Error("scrub counters not exported")
		}
		// After repair, the next full sweep is clean.
		n := e.fs.Corruptions.N
		p.Sleep(time.Duration(f.Stripes()+2) * cfg.ScrubEvery * 2)
		if e.fs.Corruptions.N != n {
			t.Error("corruption re-detected after scrub repair")
		}
		f.Close(p)
	})
	k.Run(time.Minute)
}

func TestVectoredSpansStripeBoundaries(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		e := newEnv(p, 2, 8, integrityCfg(1))
		f, _ := e.fs.Create(p, "f", 3<<20)
		f.OpenConn(p)
		// Elements straddling the stripe boundary must split cleanly
		// across the two MRs inside one batch.
		var wv []vfs.Vec
		off := f.stripeCap - 8192
		for i := 0; i < 4; i++ {
			wv = append(wv, vfs.Vec{Off: off, Buf: pattern(8192, byte(i+1))})
			off += 8192
		}
		if err := f.WriteAtV(p, wv); err != nil {
			t.Error(err)
			return
		}
		var rv []vfs.Vec
		for _, v := range wv {
			rv = append(rv, vfs.Vec{Off: v.Off, Buf: make([]byte, len(v.Buf))})
		}
		if err := f.ReadAtV(p, rv); err != nil {
			t.Error(err)
			return
		}
		for i := range rv {
			if !bytes.Equal(rv[i].Buf, wv[i].Buf) {
				t.Errorf("element %d corrupted across stripe boundary", i)
			}
		}
		// The batch must charge fewer round trips than one per block.
		blocks := int64(4 * 8192 / BlockSize)
		before := e.fs.Client.RoundTrips
		if err := f.ReadAtV(p, rv); err != nil {
			t.Error(err)
			return
		}
		if got := e.fs.Client.RoundTrips - before; got >= blocks {
			t.Errorf("vectored read charged %d round trips for %d blocks", got, blocks)
		}
	})
	k.Run(time.Minute)
}

func TestVectoredUnframedSpansStripes(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		e := newEnv(p, 2, 8, DefaultConfig())
		f, _ := e.fs.Create(p, "f", 4<<20)
		f.OpenConn(p)
		wv := []vfs.Vec{
			{Off: f.stripeCap - 4096, Buf: pattern(8192, 3)}, // straddles stripes 0/1
			{Off: 0, Buf: pattern(8192, 5)},
			{Off: 2 * f.stripeCap, Buf: pattern(8192, 7)},
		}
		if err := f.WriteAtV(p, wv); err != nil {
			t.Error(err)
			return
		}
		rv := []vfs.Vec{
			{Off: wv[0].Off, Buf: make([]byte, 8192)},
			{Off: wv[1].Off, Buf: make([]byte, 8192)},
			{Off: wv[2].Off, Buf: make([]byte, 8192)},
		}
		before := e.fs.Client.RoundTrips
		if err := f.ReadAtV(p, rv); err != nil {
			t.Error(err)
			return
		}
		rts := e.fs.Client.RoundTrips - before
		for i := range rv {
			if !bytes.Equal(rv[i].Buf, wv[i].Buf) {
				t.Errorf("element %d corrupted", i)
			}
		}
		// 4 fragments over at most 3 distinct donors: batching must beat
		// one round trip per fragment.
		if rts >= 4 {
			t.Errorf("unframed vectored read charged %d round trips for 4 fragments", rts)
		}
	})
	k.Run(time.Minute)
}

func TestVectoredDegradedStripeMidVector(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		e := newEnv(p, 2, 8, DefaultConfig())
		f, _ := e.fs.Create(p, "f", 2<<20)
		f.OpenConn(p)
		f.WriteAt(p, pattern(8192, 1), 0)
		f.WriteAt(p, pattern(8192, 2), f.stripeCap)
		// Lose stripe 1 (single replica): while its repair is in flight a
		// vector touching it must fail degraded, while one confined to
		// stripe 0 still serves.
		e.b.Revoke(f.LeaseIDs()[1])
		err := f.ReadAtV(p, []vfs.Vec{
			{Off: 0, Buf: make([]byte, 8192)},
			{Off: f.stripeCap, Buf: make([]byte, 8192)},
		})
		if !errors.Is(err, vfs.ErrUnavailable) {
			t.Errorf("vector over lost stripe: %v, want ErrUnavailable", err)
		}
		got := make([]byte, 8192)
		if err := f.ReadAtV(p, []vfs.Vec{{Off: 0, Buf: got}}); err != nil {
			t.Errorf("vector on surviving stripe: %v", err)
		}
		if !bytes.Equal(got, pattern(8192, 1)) {
			t.Error("surviving stripe served wrong bytes")
		}
	})
	k.Run(time.Minute)
}

func TestVectoredReplicaFailoverInsideBatch(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		e := newEnv(p, 3, 8, integrityCfg(2))
		f, _ := e.fs.Create(p, "f", 1<<20)
		f.OpenConn(p)
		data := pattern(64<<10, 5)
		f.WriteAt(p, data, 0)
		// Revoke the primary: every element of the batch must fail over
		// to the surviving replica with no error surfacing.
		e.b.Revoke(f.LeaseIDs()[0])
		var rv []vfs.Vec
		for off := int64(0); off < int64(len(data)); off += 8192 {
			rv = append(rv, vfs.Vec{Off: off, Buf: make([]byte, 8192)})
		}
		if err := f.ReadAtV(p, rv); err != nil {
			t.Errorf("vectored read during replica loss: %v", err)
			return
		}
		for i, v := range rv {
			if !bytes.Equal(v.Buf, data[v.Off:v.Off+8192]) {
				t.Errorf("element %d wrong during failover", i)
			}
		}
		if e.fs.Failovers.N == 0 {
			t.Error("failover not accounted")
		}
		// Writes fan out to the survivor, and read back correctly.
		wv := []vfs.Vec{{Off: 0, Buf: pattern(8192, 9)}}
		if err := f.WriteAtV(p, wv); err != nil {
			t.Errorf("vectored write during replica loss: %v", err)
		}
		got := make([]byte, 8192)
		if err := f.ReadAt(p, got, 0); err != nil {
			t.Error(err)
		}
		if !bytes.Equal(got, wv[0].Buf) {
			t.Error("write during failover lost")
		}
	})
	k.Run(time.Minute)
}

func TestVectoredVerifiesEveryElement(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		e := newEnv(p, 2, 8, integrityCfg(2))
		f, _ := e.fs.Create(p, "f", 1<<20)
		f.OpenConn(p)
		data := pattern(64<<10, 4)
		f.WriteAt(p, data, 0)
		// Corrupt two scattered blocks on the primary. The batch read
		// must catch both elements, serve them from the replica, and
		// repair the bad copies — identical semantics to scalar reads.
		if !f.InjectBlockFlip(1, 0) || !f.InjectBlockTear(5, 0) {
			t.Error("injection failed")
			return
		}
		var rv []vfs.Vec
		for off := int64(0); off < int64(len(data)); off += 8192 {
			rv = append(rv, vfs.Vec{Off: off, Buf: make([]byte, 8192)})
		}
		if err := f.ReadAtV(p, rv); err != nil {
			t.Errorf("vectored read over corrupt blocks: %v", err)
			return
		}
		for i, v := range rv {
			if !bytes.Equal(v.Buf, data[v.Off:v.Off+8192]) {
				t.Errorf("element %d served silently wrong bytes", i)
			}
		}
		if e.fs.Corruptions.N < 2 {
			t.Errorf("corruptions detected = %d, want >= 2", e.fs.Corruptions.N)
		}
		if e.fs.Repairs.N < 2 {
			t.Errorf("repairs = %d, want >= 2", e.fs.Repairs.N)
		}
		// Both copies repaired: a second batch is clean.
		n := e.fs.Corruptions.N
		if err := f.ReadAtV(p, rv); err != nil {
			t.Error(err)
		}
		if e.fs.Corruptions.N != n {
			t.Error("repair did not stick under vectored re-read")
		}
	})
	k.Run(time.Minute)
}

func TestVectoredPartialBlocksTakeMergePath(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		e := newEnv(p, 2, 8, integrityCfg(1))
		f, _ := e.fs.Create(p, "f", 1<<20)
		f.OpenConn(p)
		base := pattern(16<<10, 6)
		f.WriteAt(p, base, 0)
		// An unaligned element must read-merge-write, preserving the
		// bytes around it; the aligned element goes batched.
		patch := pattern(1000, 13)
		wv := []vfs.Vec{
			{Off: 100, Buf: patch},
			{Off: 8192, Buf: pattern(8192, 14)},
		}
		if err := f.WriteAtV(p, wv); err != nil {
			t.Error(err)
			return
		}
		want := append([]byte(nil), base...)
		copy(want[100:], patch)
		copy(want[8192:], wv[1].Buf)
		got := make([]byte, len(base))
		if err := f.ReadAt(p, got, 0); err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(want, got) {
			t.Error("partial vectored write merged wrong")
		}
	})
	k.Run(time.Minute)
}

func TestAllReplicasLostFallsBackToSalvage(t *testing.T) {
	k := newKernel(t, 1)
	k.Go("t", func(p *sim.Proc) {
		e := newEnv(p, 2, 16, integrityCfg(2))
		salvaged := false
		e.fs.Salvage = func(sp *sim.Proc, sf *File, off, n int64) error {
			salvaged = true
			return nil
		}
		f, _ := e.fs.Create(p, "f", 1<<20)
		f.SetSalvage(e.fs.Salvage)
		f.OpenConn(p)
		f.WriteAt(p, pattern(64<<10, 2), 0)
		// Kill both replicas of stripe 0 back to back: only then does
		// the legacy restripe+salvage path engage.
		e.b.Revoke(f.leases[0][0].ID)
		e.b.Revoke(f.leases[0][1].ID)
		err := f.ReadAt(p, make([]byte, 4096), 0)
		if !errors.Is(err, vfs.ErrUnavailable) {
			t.Errorf("read with all replicas gone: %v", err)
		}
		p.Sleep(2 * time.Second)
		if e.fs.LostStripes != 1 {
			t.Errorf("lost stripes: %d, want 1", e.fs.LostStripes)
		}
		if e.fs.Restripes != 1 {
			t.Errorf("restripes: %d, want 1", e.fs.Restripes)
		}
		if !salvaged {
			t.Error("salvage did not run for the fully lost stripe")
		}
		// The re-leased stripe reads as zeros (announced loss), and the
		// replicas are again on distinct donors.
		got := make([]byte, 4096)
		if err := f.ReadAt(p, got, 0); err != nil {
			t.Errorf("read after restripe: %v", err)
		}
		srv := f.StripeServers(0)
		if srv[0] == srv[1] {
			t.Errorf("restriped replicas share a donor: %v", srv)
		}
	})
	k.Run(time.Minute)
}
