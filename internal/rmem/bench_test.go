package rmem

import (
	"math/rand"
	"testing"

	"remotedb/internal/hw/nic"
	"remotedb/internal/sim"
)

// benchPages is the donor MR's size in 8 K pages: 16 MiB, so that the
// random page a read copies is not cache-resident, as on a real bed.
const benchPages = 2048

// benchRead builds one donor MR and a client and runs body with the
// timer reset: host cost per call of the transfer path every remote page
// fault sits on.
func benchRead(b *testing.B, body func(p *sim.Proc, c *Client, tr Transport, mr *MR, rng *rand.Rand)) {
	b.ReportAllocs()
	k := newKernel(b, 1)
	m := testServer(k, "m1")
	db := testServer(k, "db1")
	k.Go("bench", func(p *sim.Proc) {
		pool, _ := NewPool(p, m, benchPages*8192, 1)
		mr, _ := pool.Acquire()
		c := NewClient(p, db, DefaultClientConfig())
		b.ResetTimer()
		body(p, c, NewTransport(nic.ProtoRDMA), mr, rand.New(rand.NewSource(1)))
		b.StopTimer()
	})
	k.Run(0)
}

func BenchmarkRmemRead8K(b *testing.B) {
	benchRead(b, func(p *sim.Proc, c *Client, tr Transport, mr *MR, rng *rand.Rand) {
		buf := make([]byte, 8192)
		for i := 0; i < b.N; i++ {
			if err := tr.Read(p, c, mr, rng.Intn(benchPages)*8192, buf); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func BenchmarkRmemReadV16x8K(b *testing.B) {
	benchRead(b, func(p *sim.Proc, c *Client, tr Transport, mr *MR, rng *rand.Rand) {
		buf := make([]byte, 16*8192)
		vecs := make([]IOVec, 16)
		for i := 0; i < b.N; i++ {
			for j := range vecs {
				vecs[j] = IOVec{MR: mr, Off: rng.Intn(benchPages) * 8192, Buf: buf[j*8192 : (j+1)*8192]}
			}
			if errs := c.ReadV(p, tr, vecs); errs != nil {
				b.Error(errs)
				return
			}
		}
	})
}
