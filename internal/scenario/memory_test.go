package scenario

import (
	"runtime"
	"testing"
)

// TestConstructionBytesPerNode gates the per-node memory New allocates for
// a large low-duty scenario. Queue storage grows on demand, so a node's
// construction cost is its fixed state (MAC engine, radio, routing, RNG),
// about 4 KB on amd64; presizing every queue to its capacity K = 200
// cost ~21 KB per node.
func TestConstructionBytesPerNode(t *testing.T) {
	const ceilingKB = 6.0
	cfg := idleConfig(2000, 30, false)
	nodes := cfg.NumSensors + cfg.NumSinks
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s, err := New(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(s)
	kb := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(nodes)
	t.Logf("New allocated %.2f KB per node (%d nodes)", kb, nodes)
	if kb > ceilingKB {
		t.Errorf("New allocated %.2f KB per node, ceiling %.1f KB", kb, ceilingKB)
	}
}
