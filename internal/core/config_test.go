package core

import (
	"math"
	"strings"
	"testing"

	"scmp/internal/netsim"
	"scmp/internal/topology"
)

// TestConfigValidate has one case per Config rule. A rule that needs no
// graph fails Validate(nil) and makes New panic with Validate's error; a
// graph rule passes Validate(nil) and New, and makes Attach panic with
// Validate's error instead.
func TestConfigValidate(t *testing.T) {
	// 0-1-2-3-4-5 in two connected domains {0,1,2} and {3,4,5}.
	g := topology.New(6)
	for v := 1; v < 6; v++ {
		g.MustAddEdge(topology.NodeID(v-1), topology.NodeID(v), 1, 1)
	}
	dom := []int{0, 0, 0, 1, 1, 1}
	hier := func(c Config) Config {
		c.Domains, c.DomainMRouters = dom, []topology.NodeID{0, 3}
		return c
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name  string
		cfg   Config
		graph bool   // the rule needs the graph
		want  string // in the error; "" = valid
	}{
		{"zero value", Config{}, false, ""},
		{"unconstrained kappa", Config{Kappa: inf}, false, ""},
		{"single domain is flat", Config{Domains: make([]int, 6), DomainMRouters: []topology.NodeID{2}, Standby: 4}, false, ""},
		{"two domains", hier(Config{RefreshInterval: 1, DisableBranch: true}), false, ""},
		{"several m-routers", Config{MRouters: []topology.NodeID{1, 4}}, false, ""},

		{"kappa below 1", Config{Kappa: 0.5}, false, "Kappa 0.5"},
		{"NaN kappa", Config{Kappa: nan}, false, "Kappa NaN"},
		{"NaN delay budget", Config{DelayBudget: nan}, false, "DelayBudget NaN"},
		{"infinite delay budget", Config{DelayBudget: inf}, false, "DelayBudget +Inf"},
		{"negative delay budget", Config{DelayBudget: -1}, false, "DelayBudget -1"},
		{"NaN ack timeout", Config{AckTimeout: nan}, false, "AckTimeout NaN"},
		{"infinite ack timeout", Config{AckTimeout: inf}, false, "AckTimeout +Inf"},
		{"NaN service time", Config{ServiceTime: nan}, false, "ServiceTime NaN"},
		{"infinite service time", Config{ServiceTime: inf}, false, "ServiceTime +Inf"},
		{"negative service time", Config{ServiceTime: -1}, false, "ServiceTime -1"},
		{"NaN refresh interval", Config{RefreshInterval: nan}, false, "RefreshInterval NaN"},
		{"infinite refresh interval", Config{RefreshInterval: inf}, false, "RefreshInterval +Inf"},
		{"domains without m-routers", Config{Domains: dom}, false, "set together"},
		{"m-routers without domains", Config{DomainMRouters: []topology.NodeID{0}}, false, "set together"},
		{"standby with several m-routers", Config{MRouters: []topology.NodeID{1, 4}, Standby: 2}, false, "single-m-router mode"},
		{"standby with one listed m-router", Config{MRouters: []topology.NodeID{1}, Standby: 2}, false, "single-m-router mode"},
		{"duplicate m-router", Config{MRouters: []topology.NodeID{3, 3}}, false, "duplicate m-router 3"},
		{"hierarchy and MRouters", hier(Config{MRouters: []topology.NodeID{1, 4}}), false, "mutually exclusive"},
		{"hierarchy and standby", hier(Config{Standby: 4}), false, "hot standby"},
		{"hierarchy and reliable signalling", hier(Config{AckTimeout: 0.1}), false, "reliable-signalling"},
		{"hierarchy and retry budget", hier(Config{RetryBudget: 2}), false, "reliable-signalling"},
		{"hierarchy and admission limit", hier(Config{AdmitLimit: 2}), false, "reliable-signalling"},
		{"hierarchy and service time", hier(Config{ServiceTime: 0.1}), false, "service-time"},
		{"duplicate domain m-router", Config{Domains: dom, DomainMRouters: []topology.NodeID{0, 0}}, false, "duplicate m-router 0"},
		{"standby is the m-router", Config{MRouter: 2, Standby: 2}, false, "standby must differ"},
		{"standby is the single domain's m-router", Config{Domains: make([]int, 6), DomainMRouters: []topology.NodeID{2}, Standby: 2}, false, "standby must differ"},

		{"m-router out of range", Config{MRouter: 99}, true, "m-router 99 out of range"},
		{"negative m-router", Config{MRouters: []topology.NodeID{1, -1}}, true, "m-router -1 out of range"},
		{"standby out of range", Config{Standby: 6}, true, "standby 6 out of range"},
		{"domain m-router out of range", Config{Domains: dom, DomainMRouters: []topology.NodeID{0, 7}}, true, "m-router 7 out of range"},
		{"too few domain labels", Config{Domains: dom[:3], DomainMRouters: []topology.NodeID{0, 3}}, true, "3 entries for 6 nodes"},
		{"disconnected domain", Config{Domains: []int{0, 1, 0, 1, 1, 1}, DomainMRouters: []topology.NodeID{0, 3}}, true, "disconnected"},
		{"m-routers for fewer domains", Config{Domains: []int{0, 0, 1, 1, 2, 2}, DomainMRouters: []topology.NodeID{0, 2}}, true, "2 domain m-routers for 3 domains"},
		{"m-router outside its domain", Config{Domains: dom, DomainMRouters: []topology.NodeID{3, 0}}, true, "m-router 3 assigned to domain 0 but lies in domain 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate(g)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Validate: %v", err)
				}
				netsim.New(g, New(tc.cfg))
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate: %v, want an error containing %q", err, tc.want)
			}
			if errNil := tc.cfg.Validate(nil); (errNil == nil) != tc.graph {
				t.Fatalf("Validate(nil) = %v; the rule needs the graph: %v", errNil, tc.graph)
			}
			want := "core: " + err.Error()
			panicOf := func(f func()) (msg any) {
				defer func() { msg = recover() }()
				f()
				return nil
			}
			if got := panicOf(func() { netsim.New(g, New(tc.cfg)) }); got != want {
				t.Fatalf("New+Attach panic %v, want %q", got, want)
			}
			if tc.graph {
				s := New(tc.cfg) // a graph rule passes New and fails in Attach
				if got := panicOf(func() { netsim.New(g, s) }); got != want {
					t.Fatalf("Attach panic %v, want %q", got, want)
				}
			}
		})
	}
}
