package prime

import (
	"testing"
	"time"

	"remotedb/internal/cluster"
	"remotedb/internal/engine/buffer"
	"remotedb/internal/engine/page"
	"remotedb/internal/sim"
	"remotedb/internal/vfs"
)

func servers(k *sim.Kernel) (*cluster.Server, *cluster.Server) {
	cfg := cluster.DefaultConfig()
	cfg.MemoryBytes = 1 << 30
	return cluster.NewServer(k, "s1", cfg), cluster.NewServer(k, "s2", cfg)
}

func pool(p *sim.Proc, s *cluster.Server, frames int) *buffer.Pool {
	cfg := buffer.DefaultConfig(frames)
	cfg.WriterPeriod = 0
	cfg.PageAccessCPU = 0
	bp, err := buffer.New(p, s, vfs.NewDeviceFile("data", s.HDD), cfg)
	if err != nil {
		panic(err)
	}
	return bp
}

func TestPrimeTransfersResidentPages(t *testing.T) {
	k := newKernel(t, 1)
	s1, s2 := servers(k)
	k.Go("t", func(p *sim.Proc) {
		src := pool(p, s1, 64)
		dst := pool(p, s2, 64)
		var pages []uint64
		for i := 0; i < 32; i++ {
			h, no, _ := src.Allocate(p, page.TypeHeap)
			h.Page().Insert([]byte{byte(i)})
			h.MarkDirty(1)
			h.Release()
			pages = append(pages, no)
		}
		src.FlushAll(p)
		st, err := Prime(p, s1, s2, src, dst)
		if err != nil {
			t.Error(err)
			return
		}
		if st.Pages != 32 {
			t.Errorf("primed %d pages", st.Pages)
		}
		if st.Bytes != int64(32*(8+page.Size)) {
			t.Errorf("image bytes = %d", st.Bytes)
		}
		// Pages are resident at the secondary with intact content; no
		// disk reads needed.
		dst.Stats.DiskReads = 0
		for i, no := range pages {
			h, err := dst.Get(p, no)
			if err != nil {
				t.Error(err)
				return
			}
			rec, _ := h.Page().Get(0)
			if len(rec) != 1 || rec[0] != byte(i) {
				t.Errorf("page %d content wrong", no)
			}
			h.Release()
		}
		if dst.Stats.DiskReads != 0 {
			t.Errorf("disk reads after priming = %d", dst.Stats.DiskReads)
		}
	})
	k.Run(time.Minute)
}

func TestPrimingFasterThanWireOnly(t *testing.T) {
	// Stage sanity: transfer time should reflect the RDMA wire rate.
	k := newKernel(t, 1)
	s1, s2 := servers(k)
	k.Go("t", func(p *sim.Proc) {
		src := pool(p, s1, 1024)
		dst := pool(p, s2, 1024)
		for i := 0; i < 1024; i++ {
			h, _, _ := src.Allocate(p, page.TypeHeap)
			h.Release()
		}
		st, err := Prime(p, s1, s2, src, dst)
		if err != nil {
			t.Error(err)
			return
		}
		// 1024 pages = 8 MiB; at ~5 GB/s the wire takes ~1.7ms.
		if st.TransferTime > 20*time.Millisecond {
			t.Errorf("transfer of 8 MiB took %v", st.TransferTime)
		}
		if st.SerializeTime <= 0 || st.InstallTime <= 0 {
			t.Error("stage timings missing")
		}
	})
	k.Run(time.Minute)
}

func TestInstallRejectsCorruptImage(t *testing.T) {
	k := newKernel(t, 1)
	s1, s2 := servers(k)
	_ = s1
	k.Go("t", func(p *sim.Proc) {
		dst := pool(p, s2, 16)
		if _, err := Install(p, s2, dst, make([]byte, 100)); err == nil {
			t.Error("corrupt image accepted")
		}
	})
	k.Run(time.Minute)
}

func TestInstallSkipsResidentPages(t *testing.T) {
	k := newKernel(t, 1)
	s1, s2 := servers(k)
	k.Go("t", func(p *sim.Proc) {
		src := pool(p, s1, 16)
		dst := pool(p, s2, 16)
		h, no, _ := src.Allocate(p, page.TypeHeap)
		h.Release()
		// Make the same page already resident at dst with newer content.
		hd, noD, _ := dst.Allocate(p, page.TypeHeap)
		if noD != no {
			t.Skipf("allocation order changed: %d vs %d", noD, no)
		}
		hd.Page().Insert([]byte("newer"))
		hd.MarkDirty(2)
		hd.Release()
		img, _, _ := Serialize(p, s1, src)
		Install(p, s2, dst, img)
		h2, _ := dst.Get(p, no)
		rec, err := h2.Page().Get(0)
		if err != nil || string(rec) != "newer" {
			t.Errorf("priming overwrote a resident page: %q %v", rec, err)
		}
		h2.Release()
	})
	k.Run(time.Minute)
}
