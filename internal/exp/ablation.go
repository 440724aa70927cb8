package exp

import (
	"time"

	"remotedb/internal/broker"
	"remotedb/internal/broker/metastore"
	"remotedb/internal/cluster"
	"remotedb/internal/core"
	"remotedb/internal/hw/nic"
	"remotedb/internal/metrics"
	"remotedb/internal/rmem"
	"remotedb/internal/sim"
)

// AblationResult compares one Table 1 design choice against its
// rejected alternative on the 8 KiB random-read pattern.
type AblationResult struct {
	Choice      string
	Chosen      string
	Alternative string
	ChosenLat   time.Duration
	AltLat      time.Duration
	ChosenBPS   float64
	AltBPS      float64
}

// Factor returns alternative/chosen latency.
func (r AblationResult) Factor() float64 { return float64(r.AltLat) / float64(r.ChosenLat) }

// ablationDrive measures 8K random reads with the given client config.
func ablationDrive(seed int64, ccfg rmem.ClientConfig, threads int) (time.Duration, float64, error) {
	var lat time.Duration
	var bps float64
	err := RunInSim(seed, time.Hour, func(p *sim.Proc) error {
		k := p.Kernel()
		db := cluster.NewServer(k, "db1", serverConfig(20))
		mem := cluster.NewServer(k, "mem1", serverConfig(20))
		store := metastore.New(k, 10*time.Microsecond)
		b := broker.NewCluster(p, store, 1, broker.DefaultConfig())
		if _, err := b.AddProxy(p, mem, 8<<20, 20); err != nil {
			return err
		}
		client := rmem.NewClient(p, db, ccfg)
		fsCfg := core.DefaultConfig()
		fsCfg.Protocol = nic.ProtoRDMA
		fs := core.NewFS(p, b, client, fsCfg)
		f, err := fs.Create(p, "ab", 128<<20)
		if err != nil {
			return err
		}
		if err := f.OpenConn(p); err != nil {
			return err
		}
		hist := metrics.NewHistogram()
		var bytes int64
		dur := 300 * time.Millisecond
		end := p.Now() + dur
		wg := sim.NewWaitGroup(k)
		wg.Add(threads)
		for i := 0; i < threads; i++ {
			k.Go("io", func(wp *sim.Proc) {
				defer wg.Done()
				buf := make([]byte, 8192)
				for wp.Now() < end {
					off := wp.Rand().Int63n((128<<20)/8192) * 8192
					t0 := wp.Now()
					if err := f.ReadAt(wp, buf, off); err != nil {
						return
					}
					hist.Observe(wp.Now() - t0)
					bytes += 8192
				}
			})
		}
		wg.Wait(p)
		lat = hist.Mean()
		bps = float64(bytes) / dur.Seconds()
		return nil
	})
	return lat, bps, err
}

// RunAblationSyncVsAsync quantifies Section 4.1.3: synchronous spinning
// completion vs asynchronous I/O with context switches. Measured at low
// concurrency — in a saturated closed loop the per-op penalty hides
// inside the queueing delay (Little's law), which is also why the paper
// only sees the async cost clearly once the CPU is loaded (Figure 11c).
func RunAblationSyncVsAsync(seed int64) (*AblationResult, error) {
	res := &AblationResult{
		Choice:      "completion model (Table 1)",
		Chosen:      "synchronous spin",
		Alternative: "asynchronous I/O",
	}
	cfg := rmem.DefaultClientConfig()
	cfg.Mode = rmem.AccessSync
	var err error
	if res.ChosenLat, res.ChosenBPS, err = ablationDrive(seed, cfg, 2); err != nil {
		return nil, err
	}
	cfg.Mode = rmem.AccessAsync
	if res.AltLat, res.AltBPS, err = ablationDrive(seed, cfg, 2); err != nil {
		return nil, err
	}
	return res, nil
}

// RunAblationRegistration quantifies Section 4.1.4: preregistered
// staging buffers (memcpy ~2 µs/page) vs per-transfer registration
// (~50 µs/page).
func RunAblationRegistration(seed int64) (*AblationResult, error) {
	res := &AblationResult{
		Choice:      "MR registration (Table 1)",
		Chosen:      "preregistered staging",
		Alternative: "on-demand registration",
	}
	cfg := rmem.DefaultClientConfig()
	cfg.Reg = rmem.RegStaging
	var err error
	if res.ChosenLat, res.ChosenBPS, err = ablationDrive(seed, cfg, 2); err != nil {
		return nil, err
	}
	cfg.Reg = rmem.RegOnDemand
	if res.AltLat, res.AltBPS, err = ablationDrive(seed, cfg, 2); err != nil {
		return nil, err
	}
	return res, nil
}

// RunAblationEncryption quantifies Section 7's security future-work:
// AES-CTR encrypting every payload so donors hold only ciphertext.
func RunAblationEncryption(seed int64) (*AblationResult, error) {
	res := &AblationResult{
		Choice:      "payload encryption (Section 7)",
		Chosen:      "plaintext",
		Alternative: "AES-CTR encrypted",
	}
	cfg := rmem.DefaultClientConfig()
	var err error
	if res.ChosenLat, res.ChosenBPS, err = ablationDrive(seed, cfg, 2); err != nil {
		return nil, err
	}
	cfg.Encrypt = true
	cfg.Key = [16]byte{42}
	if res.AltLat, res.AltBPS, err = ablationDrive(seed, cfg, 2); err != nil {
		return nil, err
	}
	return res, nil
}

// RunAblationAdaptive measures the adaptive completion mode (the paper's
// Section 4.1.3 future work): on small transfers it must match sync.
func RunAblationAdaptive(seed int64) (*AblationResult, error) {
	res := &AblationResult{
		Choice:      "adaptive completion (Section 4.1.3 future work)",
		Chosen:      "adaptive",
		Alternative: "always-async",
	}
	cfg := rmem.DefaultClientConfig()
	cfg.Mode = rmem.AccessAdaptive
	var err error
	if res.ChosenLat, res.ChosenBPS, err = ablationDrive(seed, cfg, 2); err != nil {
		return nil, err
	}
	cfg.Mode = rmem.AccessAsync
	if res.AltLat, res.AltBPS, err = ablationDrive(seed, cfg, 2); err != nil {
		return nil, err
	}
	return res, nil
}

// reportAblation prints the Table 1 ablations.
func reportAblation(seed int64, _ bool, rep *Report) error {
	rep.Println("Table 1 ablations (8K random reads over RDMA):")
	for _, run := range []func(int64) (*AblationResult, error){
		RunAblationSyncVsAsync, RunAblationRegistration, RunAblationEncryption, RunAblationAdaptive,
	} {
		a, err := run(seed)
		if err != nil {
			return err
		}
		rep.Printf("  %-28s chosen(%s)=%v  alt(%s)=%v  (%.2fx)\n",
			a.Choice, a.Chosen, a.ChosenLat.Round(time.Microsecond),
			a.Alternative, a.AltLat.Round(time.Microsecond), a.Factor())
		rep.Metric(a.Alternative+"/factor", a.Factor())
	}
	return nil
}
