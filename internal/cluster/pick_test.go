package cluster

import (
	"testing"
	"time"

	"repro/internal/faas"
	"repro/internal/sim"
	"repro/internal/workload"
)

// oneRackShapes are the two constructors of a one-rack cluster. Every
// pick test runs over both: placement must not depend on which one
// built the rack.
var oneRackShapes = []struct {
	name  string
	build func(n int, cfg faas.Config) (*Cluster, error)
}{
	{"New", New},
	{"NewMultiRack(1)", func(n int, cfg faas.Config) (*Cluster, error) { return NewMultiRack(1, n, cfg) }},
}

// forEachShape runs fn on an n-node one-rack cluster from each shape,
// with Table 4 registered.
func forEachShape(t *testing.T, n int, fn func(t *testing.T, c *Cluster)) {
	for _, shape := range oneRackShapes {
		t.Run(shape.name, func(t *testing.T) {
			c, err := shape.build(n, faas.DefaultConfig(faas.PolicyTrEnvCXL))
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range workload.Table4() {
				if err := c.Register(p); err != nil {
					t.Fatal(err)
				}
			}
			fn(t, c)
		})
	}
}

// pickOne is pick without the spill flag, which a one-rack cluster
// never raises.
func pickOne(t *testing.T, c *Cluster, fn string, exclude map[string]bool) *faas.Platform {
	t.Helper()
	node, spilled := c.pick(fn, exclude)
	if spilled {
		t.Fatalf("one-rack pick reported a spillover onto %s", node.NodeName())
	}
	return node
}

// TestPickTieBreaksToLowestIndex: with every node idle, cold, and
// healthy, pick must return the first node — repeatedly. Placement is a
// pure function of cluster state, so equal-load ties cannot wander with
// call order or map iteration.
func TestPickTieBreaksToLowestIndex(t *testing.T) {
	forEachShape(t, 4, func(t *testing.T, c *Cluster) {
		for i := 0; i < 100; i++ {
			if got := pickOne(t, c, "JS", nil); got != c.nodes[0] {
				t.Fatalf("call %d: pick chose %s, want %s on an all-equal rack", i, got.NodeName(), c.nodes[0].NodeName())
			}
		}
	})
}

// TestPickExcludingSkipsToNextIndex: excluding the tie-break winner
// moves selection to the next index; excluding everything returns nil.
func TestPickExcludingSkipsToNextIndex(t *testing.T) {
	forEachShape(t, 3, func(t *testing.T, c *Cluster) {
		if got := pickOne(t, c, "JS", map[string]bool{c.nodes[0].NodeName(): true}); got != c.nodes[1] {
			t.Fatalf("pick chose %v, want %s with %s excluded", got.NodeName(), c.nodes[1].NodeName(), c.nodes[0].NodeName())
		}
		all := map[string]bool{}
		for _, n := range c.nodes {
			all[n.NodeName()] = true
		}
		if got := pickOne(t, c, "JS", all); got != nil {
			t.Fatalf("pick chose %s with every node excluded, want nil", got.NodeName())
		}
	})
}

// TestPickExcludingSkipsOpenBreakers: with the only healthy node
// excluded, pick returns nil rather than an open-breaker node — the
// health filter is decided over the whole rack before exclusion, so a
// hedge is skipped ("no second healthy node") instead of landing on a
// node the breakers route around.
func TestPickExcludingSkipsOpenBreakers(t *testing.T) {
	forEachShape(t, 3, func(t *testing.T, c *Cluster) {
		for _, b := range c.breakers[1:] {
			for i := 0; i < 5; i++ {
				b.Record(false)
			}
			if b.Allow() {
				t.Fatal("breaker did not open")
			}
		}
		if got := pickOne(t, c, "JS", nil); got != c.nodes[0] {
			t.Fatalf("pick chose %s, want the only healthy node %s", got.NodeName(), c.nodes[0].NodeName())
		}
		if got := pickOne(t, c, "JS", map[string]bool{c.nodes[0].NodeName(): true}); got != nil {
			t.Fatalf("pick chose open-breaker %s with the healthy node excluded, want nil", got.NodeName())
		}
	})
}

// TestPickExcludingPrefersWarmElsewhere: a warm instance beats the
// index tie-break, and excluding the warm node falls back to the
// lowest-index cold node.
func TestPickExcludingPrefersWarmElsewhere(t *testing.T) {
	forEachShape(t, 3, func(t *testing.T, c *Cluster) {
		// Warm exactly one node. Dispatch lands on the first node
		// (tie-break); probe while the instance is still inside its
		// keep-alive window — letting the engine drain fully would evict
		// it again.
		c.Invoke(0, "JS")
		done := false
		c.Engine().At(time.Second, "probe/warm-pick", func(p *sim.Proc) {
			warm := pickOne(t, c, "JS", nil)
			if !warm.HasWarm("JS") {
				t.Errorf("pick chose cold %s over the warm node", warm.NodeName())
			}
			if warm != c.nodes[0] {
				t.Errorf("warm instance on %s, expected %s from the tie-break", warm.NodeName(), c.nodes[0].NodeName())
			}
			next := pickOne(t, c, "JS", map[string]bool{warm.NodeName(): true})
			if next != c.nodes[1] {
				t.Errorf("with the warm node excluded pick chose %s, want %s", next.NodeName(), c.nodes[1].NodeName())
			}
			done = true
		})
		c.Engine().Run()
		if !done {
			t.Fatal("probe never ran")
		}
	})
}

// TestMultiRackPickTieBreaksDeterministically: the fleet-wide scan has
// the same guarantee — idle equal fleet picks the home rack's first
// node, every call; excluding it moves to the next home node without
// counting as a spill.
func TestMultiRackPickTieBreaksDeterministically(t *testing.T) {
	m, err := NewMultiRack(2, 2, faas.DefaultConfig(faas.PolicyTrEnvCXL))
	if err != nil {
		t.Fatal(err)
	}
	prof, err := workload.ProfileByName("JS")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterHome(prof, 1); err != nil { // homed on rack 1
		t.Fatal(err)
	}
	home := m.Nodes()[2] // rack-major order: r1's first node is index 2
	for i := 0; i < 100; i++ {
		node, spilled := m.pick("JS", nil)
		if node != home || spilled {
			t.Fatalf("call %d: pick chose %s spilled=%v, want %s on the home rack", i, node.NodeName(), spilled, home.NodeName())
		}
	}
	node, spilled := m.pick("JS", map[string]bool{home.NodeName(): true})
	if node != m.Nodes()[3] || spilled {
		t.Fatalf("with %s excluded pick chose %s spilled=%v, want its home-rack sibling", home.NodeName(), node.NodeName(), spilled)
	}
	node, spilled = m.pick("JS", map[string]bool{
		home.NodeName(): true, m.Nodes()[3].NodeName(): true,
	})
	if node == nil || node.NodeName() == home.NodeName() {
		t.Fatal("excluding the home rack must spill to another rack, not fail")
	}
	if !spilled {
		t.Fatal("off-home dispatch not reported as a spill")
	}
	var none *faas.Platform
	all := map[string]bool{}
	for _, n := range m.Nodes() {
		all[n.NodeName()] = true
	}
	if none, _ = m.pick("JS", all); none != nil {
		t.Fatalf("pick chose %s with the whole fleet excluded, want nil", none.NodeName())
	}
}

// TestPickDeterminismUnderLoadSkew: a strictly less-loaded node
// displaces the incumbent, but equal load never does.
func TestPickDeterminismUnderLoadSkew(t *testing.T) {
	forEachShape(t, 2, func(t *testing.T, c *Cluster) {
		// Occupy the first node with a long invocation, then pick while
		// it runs.
		c.Invoke(0, "PR") // ~600ms exec
		done := false
		c.Engine().At(5*time.Millisecond, "probe/pick", func(p *sim.Proc) {
			if got := pickOne(t, c, "JS", nil); got != c.nodes[1] {
				t.Errorf("pick chose %s while %s is busy, want idle %s", got.NodeName(), c.nodes[0].NodeName(), c.nodes[1].NodeName())
			}
			done = true
		})
		c.Engine().Run()
		if !done {
			t.Fatal("probe never ran")
		}
	})
}
