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
	// The line 0-1-2-3-4-5.
	g := topology.New(6)
	for v := 1; v < 6; v++ {
		g.MustAddEdge(topology.NodeID(v-1), topology.NodeID(v), 1, 1)
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
		{"hot standby", Config{MRouter: 2, Standby: 4}, false, ""},
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
		{"negative processors", Config{Processors: -1}, false, "Processors -1 is negative"},
		{"negative retry cap", Config{RetryCap: -1}, false, "RetryCap -1 is negative"},
		{"negative admit limit", Config{AdmitLimit: -1}, false, "AdmitLimit -1 is negative"},
		{"negative retry budget", Config{RetryBudget: -2}, false, "RetryBudget -2 is negative"},
		{"standby with several m-routers", Config{MRouters: []topology.NodeID{1, 4}, Standby: 2}, false, "single-m-router mode"},
		{"standby with one listed m-router", Config{MRouters: []topology.NodeID{1}, Standby: 2}, false, "single-m-router mode"},
		{"duplicate m-router", Config{MRouters: []topology.NodeID{3, 3}}, false, "duplicate m-router 3"},
		{"duplicate m-router, not adjacent", Config{MRouters: []topology.NodeID{0, 1, 0}}, false, "duplicate m-router 0"},
		{"standby is the m-router", Config{MRouter: 2, Standby: 2}, false, "standby must differ"},

		{"m-router out of range", Config{MRouter: 99}, true, "m-router 99 out of range"},
		{"negative m-router", Config{MRouters: []topology.NodeID{1, -1}}, true, "m-router -1 out of range"},
		{"standby out of range", Config{Standby: 6}, true, "standby 6 out of range"},
		{"listed m-router out of range", Config{MRouters: []topology.NodeID{0, 7}}, true, "m-router 7 out of range"},
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
