package core

import (
	"math/rand"
	"testing"

	"remotedb/internal/sim"
	"remotedb/internal/vfs"
)

// protectedCfg is the stack the fileapi_mix benchmark workload runs on:
// integrity frames, replication 2, hedged reads, donor health checks.
func protectedCfg() Config {
	cfg := integrityCfg(2)
	cfg.Hedging = true
	cfg.HealthChecks = true
	return cfg
}

// benchFramed builds a fully written 4 MiB protected file over 4 donors
// and runs body with the timer reset.
func benchFramed(b *testing.B, body func(p *sim.Proc, f *File, rng *rand.Rand)) {
	b.ReportAllocs()
	k := newKernel(b, 1)
	k.Go("bench", func(p *sim.Proc) {
		e := newEnv(p, 4, 8, protectedCfg())
		f, err := e.fs.Create(p, "f", 4<<20)
		if err != nil {
			b.Error(err)
			return
		}
		f.OpenConn(p)
		if err := f.WriteAt(p, pattern(4<<20, 3), 0); err != nil {
			b.Error(err)
			return
		}
		rng := rand.New(rand.NewSource(1))
		b.ResetTimer()
		body(p, f, rng)
		b.StopTimer()
		e.fs.CloseAll(p)
	})
	k.Run(0)
}

func BenchmarkFramedReadAt8K(b *testing.B) {
	benchFramed(b, func(p *sim.Proc, f *File, rng *rand.Rand) {
		buf := make([]byte, 8192)
		for i := 0; i < b.N; i++ {
			if err := f.ReadAt(p, buf, int64(rng.Intn(512))*8192); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func BenchmarkFramedReadAtV16x8K(b *testing.B) {
	benchFramed(b, func(p *sim.Proc, f *File, rng *rand.Rand) {
		buf := make([]byte, 16*8192)
		vecs := make([]vfs.Vec, 16)
		for i := 0; i < b.N; i++ {
			for j := range vecs {
				vecs[j] = vfs.Vec{Off: int64(rng.Intn(512)) * 8192, Buf: buf[j*8192 : (j+1)*8192]}
			}
			if err := f.ReadAtV(p, vecs); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func BenchmarkFramedWriteAt8K(b *testing.B) {
	benchFramed(b, func(p *sim.Proc, f *File, rng *rand.Rand) {
		buf := pattern(8192, 9)
		for i := 0; i < b.N; i++ {
			if err := f.WriteAt(p, buf, int64(rng.Intn(512))*8192); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
