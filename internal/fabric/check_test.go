package fabric

import (
	"strings"
	"testing"
)

// TestCheckerCatchesMaskDrift pins the mask invariant: the busy and free
// masks are derived state the route and request stages trust blindly,
// so the checker must flag any single bit that disagrees with the
// buffers, including a stray bit beyond the configured VCs.
func TestCheckerCatchesMaskDrift(t *testing.T) {
	cfg := baseConfig(Mesh{W: 3, H: 3, Conc: 2, Lanes: 2})
	cfg.VCs = 3
	cfg.Defaults()
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	slot := 4*cfg.Topo.Radix() + cfg.Topo.Concentration() + 1 // centre router, a link input
	cases := []struct {
		name string
		flip func(n *network)
	}{
		{"busy bit on empty VC", func(n *network) { n.busy[slot] ^= 1 << 1 }},
		{"free bit cleared", func(n *network) { n.free[slot] ^= 1 << 2 }},
		{"stray bit beyond VCs", func(n *network) { n.free[slot] ^= 1 << 3 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := newNetwork(cfg)
			chk := newChecker(n)
			if err := chk.scan(0); err != nil {
				t.Fatalf("fresh network fails the scan: %v", err)
			}
			tc.flip(n)
			err := chk.scan(0)
			if err == nil || !strings.Contains(err.Error(), "mask") {
				t.Fatalf("flipped mask bit not caught: %v", err)
			}
		})
	}
}
