package rmem

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"remotedb/internal/hw/nic"
	"remotedb/internal/sim"
)

var testKey = [16]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}

func TestEncryptedRoundTrip(t *testing.T) {
	k := newKernel(t, 1)
	m := testServer(k, "m1")
	db := testServer(k, "db1")
	k.Go("t", func(p *sim.Proc) {
		pool, _ := NewPool(p, m, 1<<20, 1)
		mr, _ := pool.Acquire()
		cfg := DefaultClientConfig()
		cfg.Encrypt = true
		cfg.Key = testKey
		c := NewClient(p, db, cfg)
		tr := NewTransport(nic.ProtoRDMA)

		plain := bytes.Repeat([]byte("secret-row-data!"), 512) // 8 KiB
		if err := tr.Write(p, c, mr, 4096, plain); err != nil {
			t.Error(err)
			return
		}
		// The donor's memory must hold ciphertext, not the plaintext.
		if bytes.Contains(mr.buf, []byte("secret-row-data!")) {
			t.Error("plaintext visible in donor memory")
		}
		got := make([]byte, len(plain))
		if err := tr.Read(p, c, mr, 4096, got); err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(plain, got) {
			t.Error("encrypted round trip corrupted")
		}
	})
	k.Run(time.Minute)
}

func TestEncryptedUnalignedOffsets(t *testing.T) {
	// CTR keystream positioning must be correct for arbitrary offsets:
	// write a big region, then read back sub-ranges at odd offsets.
	k := newKernel(t, 1)
	m := testServer(k, "m1")
	db := testServer(k, "db1")
	k.Go("t", func(p *sim.Proc) {
		pool, _ := NewPool(p, m, 1<<20, 1)
		mr, _ := pool.Acquire()
		cfg := DefaultClientConfig()
		cfg.Encrypt = true
		cfg.Key = testKey
		c := NewClient(p, db, cfg)
		tr := NewTransport(nic.ProtoRDMA)

		plain := make([]byte, 10000)
		for i := range plain {
			plain[i] = byte(i * 7)
		}
		if err := tr.Write(p, c, mr, 123, plain); err != nil {
			t.Error(err)
			return
		}
		for _, window := range []struct{ off, n int }{{123, 100}, {124, 16}, {1000, 1}, {123 + 9999, 1}, {5000, 3000}} {
			got := make([]byte, window.n)
			if err := tr.Read(p, c, mr, window.off, got); err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(got, plain[window.off-123:window.off-123+window.n]) {
				t.Errorf("window at %d+%d decrypts wrong", window.off, window.n)
			}
		}
	})
	k.Run(time.Minute)
}

func TestEncryptionChargesCPU(t *testing.T) {
	k := newKernel(t, 1)
	m := testServer(k, "m1")
	db := testServer(k, "db1")
	var plainLat, encLat time.Duration
	k.Go("t", func(p *sim.Proc) {
		pool, _ := NewPool(p, m, 1<<20, 1)
		mr, _ := pool.Acquire()
		tr := NewTransport(nic.ProtoRDMA)
		buf := make([]byte, 8192)

		c1 := NewClient(p, db, DefaultClientConfig())
		t0 := p.Now()
		tr.Read(p, c1, mr, 0, buf)
		plainLat = p.Now() - t0

		cfg := DefaultClientConfig()
		cfg.Encrypt = true
		cfg.Key = testKey
		c2 := NewClient(p, db, cfg)
		t0 = p.Now()
		tr.Read(p, c2, mr, 0, buf)
		encLat = p.Now() - t0
	})
	k.Run(time.Minute)
	delta := encLat - plainLat
	want := encryptCost(8192)
	if delta < want/2 || delta > want*2 {
		t.Fatalf("encryption overhead = %v, want ~%v", delta, want)
	}
}

// Property: xcrypt is an involution at any (mr, offset) and different
// offsets produce different keystreams.
func TestXcryptProperties(t *testing.T) {
	c := newCryptor(testKey)
	mr := MRID{Server: "m1", Index: 3}
	f := func(data []byte, off uint16) bool {
		if len(data) == 0 {
			return true
		}
		orig := append([]byte(nil), data...)
		c.xcrypt(mr, int(off), data)
		cipher1 := append([]byte(nil), data...)
		c.xcrypt(mr, int(off), data)
		if !bytes.Equal(data, orig) {
			return false
		}
		// A different offset must give different ciphertext (for inputs
		// long enough that collision is impossible).
		if len(orig) >= 16 {
			tmp := append([]byte(nil), orig...)
			c.xcrypt(mr, int(off)+1, tmp)
			if bytes.Equal(tmp, cipher1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDifferentMRsDifferentKeystreams(t *testing.T) {
	c := newCryptor(testKey)
	data1 := bytes.Repeat([]byte{0}, 64)
	data2 := bytes.Repeat([]byte{0}, 64)
	c.xcrypt(MRID{Server: "m1", Index: 1}, 0, data1)
	c.xcrypt(MRID{Server: "m1", Index: 2}, 0, data2)
	if bytes.Equal(data1, data2) {
		t.Fatal("different MRs share a keystream")
	}
}

// An encrypted write yields to encrypt before its bytes land; a donor
// that fails in that window fails the write with ErrRevoked, on every
// write path, instead of writing into memory that is gone.
func TestEncryptedWriteRevokedWhileEncrypting(t *testing.T) {
	const n = 256 << 10
	paths := map[string]func(p *sim.Proc, c *Client, mr *MR, src []byte) error{
		"rdma": func(p *sim.Proc, c *Client, mr *MR, src []byte) error {
			return NewTransport(nic.ProtoRDMA).Write(p, c, mr, 0, src)
		},
		"rdma-vector": func(p *sim.Proc, c *Client, mr *MR, src []byte) error {
			errs := c.WriteV(p, NewTransport(nic.ProtoRDMA), []IOVec{{MR: mr, Off: 0, Buf: src}})
			if errs == nil {
				return nil
			}
			return errs[0]
		},
		"smb": func(p *sim.Proc, c *Client, mr *MR, src []byte) error {
			return NewTransport(nic.ProtoSMBDirect).Write(p, c, mr, 0, src)
		},
	}
	for name, write := range paths {
		t.Run(name, func(t *testing.T) {
			// run writes once, with the donor failing revokeAt into the
			// write (never, if revokeAt is 0), and returns the write's
			// error and duration.
			run := func(revokeAt time.Duration) (err error, took time.Duration) {
				k := newKernel(t, 1)
				m := testServer(k, "m1")
				db := testServer(k, "db1")
				k.Go("t", func(p *sim.Proc) {
					pool, _ := NewPool(p, m, 1<<20, 1)
					mr, _ := pool.Acquire()
					cfg := DefaultClientConfig()
					cfg.Encrypt = true
					cfg.Key = testKey
					c := NewClient(p, db, cfg)
					if revokeAt > 0 {
						k.Go("fail", func(fp *sim.Proc) {
							fp.Sleep(revokeAt)
							pool.RevokeAll()
						})
					}
					t0 := p.Now()
					err = write(p, c, mr, make([]byte, n))
					took = p.Now() - t0
				})
				k.Run(time.Minute)
				return err, took
			}
			err, took := run(0)
			if err != nil || took <= encryptCost(n) {
				t.Fatalf("unrevoked write: err %v, took %v (encryption alone %v)", err, took, encryptCost(n))
			}
			// The encryption is the write's last stage.
			if err, _ := run(took - encryptCost(n)/2); !errors.Is(err, ErrRevoked) {
				t.Fatalf("write revoked while encrypting: err %v, want ErrRevoked", err)
			}
		})
	}
}
