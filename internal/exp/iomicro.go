package exp

import (
	"fmt"
	"strings"
	"time"

	"remotedb/internal/broker"
	"remotedb/internal/broker/metastore"
	"remotedb/internal/cluster"
	"remotedb/internal/core"
	"remotedb/internal/hw/nic"
	"remotedb/internal/metrics"
	"remotedb/internal/rmem"
	"remotedb/internal/sim"
	"remotedb/internal/vfs"
	"remotedb/internal/workload"
)

// IORow is one bar of Figures 3 and 4.
type IORow struct {
	Config      string
	Pattern     string // "8K Random" or "512K Sequential"
	BytesPerSec float64
	Latency     time.Duration
}

// IOMicroResult reproduces Figures 3 and 4.
type IOMicroResult struct {
	Rows []IORow
}

// remoteFile builds a remote-memory file over n memory servers with the
// given protocol, returning it with its bed plumbing alive.
func remoteFile(p *sim.Proc, proto nic.Protocol, servers int, size int64) (vfs.File, []*cluster.Server, *cluster.Server, error) {
	k := p.Kernel()
	db := cluster.NewServer(k, "db1", serverConfig(20))
	store := metastore.New(k, 10*time.Microsecond)
	b := broker.NewCluster(p, store, 1, broker.DefaultConfig())
	var mems []*cluster.Server
	mrBytes := 8 << 20
	perServer := (size + int64(servers) - 1) / int64(servers)
	mrs := int((perServer+int64(mrBytes)-1)/int64(mrBytes)) + 1
	for i := 0; i < servers; i++ {
		m := cluster.NewServer(k, fmt.Sprintf("mem%d", i+1), serverConfig(20))
		mems = append(mems, m)
		if _, err := b.AddProxy(p, m, mrBytes, mrs); err != nil {
			return nil, nil, nil, err
		}
	}
	clientCfg := rmem.DefaultClientConfig()
	if proto != nic.ProtoRDMA {
		clientCfg.Mode = rmem.AccessAsync
	}
	client := rmem.NewClient(p, db, clientCfg)
	fsCfg := core.DefaultConfig()
	fsCfg.Protocol = proto
	fs := core.NewFS(p, b, client, fsCfg)
	f, err := fs.Create(p, "io", size)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := f.OpenConn(p); err != nil {
		return nil, nil, nil, err
	}
	return f, mems, db, nil
}

// RunIOMicro reproduces Figures 3 and 4: raw read throughput and latency
// of every storage alternative under SQLIO's two patterns.
func RunIOMicro(seed int64) (*IOMicroResult, error) {
	res := &IOMicroResult{}
	span := int64(256 << 20)

	type target struct {
		name string
		mk   func(p *sim.Proc) (vfs.File, error)
	}
	targets := []target{
		{"HDD(4)", func(p *sim.Proc) (vfs.File, error) {
			s := cluster.NewServer(p.Kernel(), "h4", serverConfig(4))
			return vfs.NewDeviceFile("hdd", s.HDD), nil
		}},
		{"HDD(8)", func(p *sim.Proc) (vfs.File, error) {
			s := cluster.NewServer(p.Kernel(), "h8", serverConfig(8))
			return vfs.NewDeviceFile("hdd", s.HDD), nil
		}},
		{"HDD(20)", func(p *sim.Proc) (vfs.File, error) {
			s := cluster.NewServer(p.Kernel(), "h20", serverConfig(20))
			return vfs.NewDeviceFile("hdd", s.HDD), nil
		}},
		{"SSD", func(p *sim.Proc) (vfs.File, error) {
			s := cluster.NewServer(p.Kernel(), "ssd", serverConfig(20))
			return vfs.NewDeviceFile("ssd", s.SSD), nil
		}},
		{"SMB+RamDrive", func(p *sim.Proc) (vfs.File, error) {
			f, _, _, err := remoteFile(p, nic.ProtoSMB, 1, span)
			return f, err
		}},
		{"SMBDirect+RamDrive", func(p *sim.Proc) (vfs.File, error) {
			f, _, _, err := remoteFile(p, nic.ProtoSMBDirect, 1, span)
			return f, err
		}},
		{"Custom", func(p *sim.Proc) (vfs.File, error) {
			f, _, _, err := remoteFile(p, nic.ProtoRDMA, 1, span)
			return f, err
		}},
	}
	patterns := []struct {
		name string
		cfg  workload.SQLIOConfig
	}{
		{"8K Random", workload.RandomRead8K(span)},
		{"512K Sequential", workload.SequentialRead512K(span)},
	}
	for i := range patterns {
		patterns[i].cfg.Duration = 400 * time.Millisecond
	}
	for _, tg := range targets {
		for _, pat := range patterns {
			tg, pat := tg, pat
			err := RunInSim(seed, time.Hour, func(p *sim.Proc) error {
				f, err := tg.mk(p)
				if err != nil {
					return err
				}
				r := workload.RunSQLIO(p, f, pat.cfg)
				res.Rows = append(res.Rows, IORow{
					Config:      tg.name,
					Pattern:     pat.name,
					BytesPerSec: r.BytesPerSec,
					Latency:     r.Latency.Mean(),
				})
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", tg.name, pat.name, err)
			}
		}
	}
	return res, nil
}

// MultiServerPoint is one x-position of Figures 5 and 6.
type MultiServerPoint struct {
	Servers   int
	RandomBPS float64
	RandomLat time.Duration
	SeqBPS    float64
	SeqLat    time.Duration
}

// RunFig05MultiMemoryServers reproduces Figure 5: one database server
// reading a fixed total of remote memory spread over 1..8 memory
// servers.
func RunFig05MultiMemoryServers(seed int64) ([]MultiServerPoint, error) {
	var out []MultiServerPoint
	span := int64(256 << 20)
	for _, n := range []int{1, 2, 4, 8} {
		pt := MultiServerPoint{Servers: n}
		err := RunInSim(seed, time.Hour, func(p *sim.Proc) error {
			f, _, _, err := remoteFile(p, nic.ProtoRDMA, n, span)
			if err != nil {
				return err
			}
			rndCfg := workload.RandomRead8K(span)
			rndCfg.Duration = 400 * time.Millisecond
			r := workload.RunSQLIO(p, f, rndCfg)
			pt.RandomBPS = r.BytesPerSec
			pt.RandomLat = r.Latency.Mean()
			seqCfg := workload.SequentialRead512K(span)
			seqCfg.Duration = 400 * time.Millisecond
			s := workload.RunSQLIO(p, f, seqCfg)
			pt.SeqBPS = s.BytesPerSec
			pt.SeqLat = s.Latency.Mean()
			return nil
		})
		if err != nil {
			return nil, err
		}
		out = append(out, pt)
	}
	return out, nil
}

// RunFig06MultiDBServers reproduces Figure 6: 1..8 database servers
// reading remote memory on one memory server; aggregate throughput and
// mean latency.
func RunFig06MultiDBServers(seed int64) ([]MultiServerPoint, error) {
	var out []MultiServerPoint
	perDB := int64(32 << 20)
	for _, n := range []int{1, 2, 4, 8} {
		pt := MultiServerPoint{Servers: n}
		err := RunInSim(seed, time.Hour, func(p *sim.Proc) error {
			k := p.Kernel()
			store := metastore.New(k, 10*time.Microsecond)
			b := broker.NewCluster(p, store, 1, broker.DefaultConfig())
			mem := cluster.NewServer(k, "mem1", serverConfig(20))
			mrBytes := 8 << 20
			if _, err := b.AddProxy(p, mem, mrBytes, int(perDB*int64(n))/mrBytes+n); err != nil {
				return err
			}
			// Each DB server gets its own file and drives a quarter-rate
			// random pattern so ~4 servers saturate the memory server's
			// NIC, as in the paper.
			hist := metrics.NewHistogram()
			var bytes int64
			dur := 500 * time.Millisecond
			wg := sim.NewWaitGroup(k)
			wg.Add(n)
			for i := 0; i < n; i++ {
				db := cluster.NewServer(k, fmt.Sprintf("db%d", i+1), serverConfig(20))
				client := rmem.NewClient(p, db, rmem.DefaultClientConfig())
				fs := core.NewFS(p, b, client, core.DefaultConfig())
				f, err := fs.Create(p, "io", perDB)
				if err != nil {
					return err
				}
				if err := f.OpenConn(p); err != nil {
					return err
				}
				k.Go("dbdrive", func(dp *sim.Proc) {
					defer wg.Done()
					end := dp.Now() + dur
					// 2 threads per DB, tuned (as in the paper) so that
					// ~4 DB servers saturate the memory server's NIC.
					inner := sim.NewWaitGroup(k)
					inner.Add(2)
					for t := 0; t < 2; t++ {
						k.Go("io", func(tp *sim.Proc) {
							defer inner.Done()
							buf := make([]byte, 8192)
							for tp.Now() < end {
								off := tp.Rand().Int63n(perDB/8192) * 8192
								t0 := tp.Now()
								if err := f.ReadAt(tp, buf, off); err != nil {
									return
								}
								hist.Observe(tp.Now() - t0)
								bytes += 8192
							}
						})
					}
					inner.Wait(dp)
				})
			}
			wg.Wait(p)
			pt.RandomBPS = float64(bytes) / dur.Seconds()
			pt.RandomLat = hist.Mean()
			return nil
		})
		if err != nil {
			return nil, err
		}
		out = append(out, pt)
	}
	return out, nil
}

// reportFig34 prints Figures 3 and 4.
func reportFig34(seed int64, _ bool, rep *Report) error {
	res, err := RunIOMicro(seed)
	if err != nil {
		return err
	}
	rep.Println("Figure 3/4: I/O micro-benchmark (SQLIO)")
	rep.Printf("  %-22s %-16s %12s %12s\n", "config", "pattern", "GB/s", "latency")
	for _, r := range res.Rows {
		rep.Printf("  %-22s %-16s %12.3f %12v\n", r.Config, r.Pattern, r.BytesPerSec/1e9, r.Latency.Round(time.Microsecond))
		key := r.Config + "/" + strings.ToLower(strings.Fields(r.Pattern)[1]) // e.g. "SSD/random"
		rep.Metric(key+"/gb_per_sec", r.BytesPerSec/1e9)
		rep.MetricDur(key+"/lat_ms", r.Latency)
		switch {
		case r.Config == "Custom" && r.Pattern == "8K Random":
			rep.Metric("custom_rnd_gb_per_sec", r.BytesPerSec/1e9)
			rep.MetricDur("custom_rnd_lat_ms", r.Latency)
		case r.Config == "HDD(20)" && r.Pattern == "512K Sequential":
			rep.Metric("hdd20_seq_gb_per_sec", r.BytesPerSec/1e9)
		}
	}
	rep.Metric("rows", float64(len(res.Rows)))
	return nil
}

// reportFig5 prints Figure 5.
func reportFig5(seed int64, _ bool, rep *Report) error {
	pts, err := RunFig05MultiMemoryServers(seed)
	if err != nil {
		return err
	}
	rep.Println("Figure 5: one DB server, memory spread over N servers")
	rep.Printf("  %8s %14s %12s %14s %12s\n", "servers", "rnd GB/s", "rnd lat", "seq GB/s", "seq lat")
	for _, pt := range pts {
		rep.Printf("  %8d %14.3f %12v %14.3f %12v\n", pt.Servers,
			pt.RandomBPS/1e9, pt.RandomLat.Round(time.Microsecond),
			pt.SeqBPS/1e9, pt.SeqLat.Round(time.Microsecond))
		rep.Metric(fmt.Sprintf("servers%d/rnd_gb_per_sec", pt.Servers), pt.RandomBPS/1e9)
		rep.Metric(fmt.Sprintf("servers%d/seq_gb_per_sec", pt.Servers), pt.SeqBPS/1e9)
	}
	return nil
}

// reportFig6 prints Figure 6.
func reportFig6(seed int64, _ bool, rep *Report) error {
	pts, err := RunFig06MultiDBServers(seed)
	if err != nil {
		return err
	}
	rep.Println("Figure 6: N DB servers on one memory server")
	rep.Printf("  %8s %14s %12s\n", "servers", "agg GB/s", "latency")
	for _, pt := range pts {
		rep.Printf("  %8d %14.3f %12v\n", pt.Servers, pt.RandomBPS/1e9, pt.RandomLat.Round(time.Microsecond))
		rep.Metric(fmt.Sprintf("servers%d/agg_gb_per_sec", pt.Servers), pt.RandomBPS/1e9)
		rep.MetricDur(fmt.Sprintf("servers%d/lat_ms", pt.Servers), pt.RandomLat)
	}
	return nil
}
