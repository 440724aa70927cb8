package broker

import (
	"testing"

	"remotedb/internal/cluster"
	"remotedb/internal/sim"
)

// TestSoftAvoidDeprioritizes verifies SoftAvoid steers new leases away
// from the named donor while capacity exists elsewhere.
func TestSoftAvoidDeprioritizes(t *testing.T) {
	harness(t, 3, 2, func(p *sim.Proc, c *Cluster, servers []*cluster.Server, proxies []*Proxy) {
		leases, err := c.Request(p, RequestSpec{
			Holder:    "db1",
			N:         4,
			Place:     PlaceSpread,
			SoftAvoid: map[string]bool{"m2": true},
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range leases {
			if l.MR.Owner.Name == "m2" {
				t.Errorf("lease landed on soft-avoided donor with free capacity elsewhere")
			}
		}
	})
}

// TestSoftAvoidFallsBackUnderScarcity verifies soft avoidance is a
// preference, not an exclusion: when only the avoided donor has space,
// the request still succeeds there.
func TestSoftAvoidFallsBackUnderScarcity(t *testing.T) {
	harness(t, 2, 2, func(p *sim.Proc, c *Cluster, servers []*cluster.Server, proxies []*Proxy) {
		// Fill m1 completely so only m2 has free MRs.
		if _, err := c.Request(p, RequestSpec{Holder: "filler", N: 2, Place: PlacePack}); err != nil {
			t.Fatal(err)
		}
		leases, err := c.Request(p, RequestSpec{
			Holder:    "db1",
			N:         1,
			Place:     PlacePack,
			SoftAvoid: map[string]bool{"m2": true},
		})
		if err != nil {
			t.Fatalf("soft avoidance must not starve the request: %v", err)
		}
		if len(leases) != 1 || leases[0].MR.Owner.Name != "m2" {
			t.Errorf("expected fallback onto the avoided donor, got %v", leases)
		}
	})
}

// TestHardAvoidStillFails contrasts Avoid with SoftAvoid: a hard avoid
// refuses the grant even when the avoided donor has space.
func TestHardAvoidStillFails(t *testing.T) {
	harness(t, 2, 2, func(t0 *sim.Proc, c *Cluster, servers []*cluster.Server, proxies []*Proxy) {
		if _, err := c.Request(t0, RequestSpec{Holder: "filler", N: 2, Place: PlacePack}); err != nil {
			t.Fatal(err)
		}
		_, err := c.Request(t0, RequestSpec{
			Holder: "db1",
			N:      1,
			Place:  PlacePack,
			Avoid:  map[string]bool{"m2": true},
		})
		if err != ErrNoMemory {
			t.Errorf("hard avoid: err = %v, want ErrNoMemory", err)
		}
	})
}

// TestReportDonorHealthReplacesAndClears verifies a holder's report
// replaces its previous set and an empty report withdraws it, with
// multi-holder reports intersecting correctly.
func TestReportDonorHealthReplacesAndClears(t *testing.T) {
	harness(t, 3, 1, func(p *sim.Proc, c *Cluster, servers []*cluster.Server, proxies []*Proxy) {
		c.ReportDonorHealth("db1", []string{"m1", "m2"})
		c.ReportDonorHealth("db2", []string{"m2"})
		if got := c.Shard(0).DeprioritizedDonors(); len(got) != 2 || got[0] != "m1" || got[1] != "m2" {
			t.Fatalf("deprioritized = %v, want [m1 m2]", got)
		}
		// db1's new report drops m1 and m2; m2 stays via db2.
		c.ReportDonorHealth("db1", []string{"m3"})
		if got := c.Shard(0).DeprioritizedDonors(); len(got) != 2 || got[0] != "m2" || got[1] != "m3" {
			t.Fatalf("after replace: %v, want [m2 m3]", got)
		}
		c.ReportDonorHealth("db1", nil)
		c.ReportDonorHealth("db2", nil)
		if got := c.Shard(0).DeprioritizedDonors(); len(got) != 0 {
			t.Fatalf("after withdrawal: %v, want empty", got)
		}
		if c.HealthReports() != 5 {
			t.Errorf("HealthReports = %d, want 5", c.HealthReports())
		}
	})
}

// TestReportedDonorsDeprioritizedForEveryone verifies health reports
// influence placement for holders other than the reporter.
func TestReportedDonorsDeprioritizedForEveryone(t *testing.T) {
	harness(t, 3, 2, func(p *sim.Proc, c *Cluster, servers []*cluster.Server, proxies []*Proxy) {
		c.ReportDonorHealth("db1", []string{"m1"})
		leases, err := c.Request(p, RequestSpec{Holder: "db2", N: 4, Place: PlaceSpread})
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range leases {
			if l.MR.Owner.Name == "m1" {
				t.Error("reported-slow donor used while others had capacity")
			}
		}
	})
}
