package simrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewIsDeterministic(t *testing.T) {
	a, b := New(7), New(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

// TestMarkMatchesState pins the by-value position: rewinding to a Mark
// replays the same draws as restoring its State, its State is the bytes
// Source.State gives at that point and decodes back through MarkOf, and
// taking and rewinding a Mark allocate nothing.
func TestMarkMatchesState(t *testing.T) {
	s := New(11)
	s.Uint64()
	m, st := s.Mark(), s.State()
	if string(m.State()) != string(st) {
		t.Fatal("Mark.State bytes differ from State")
	}
	want := s.Uint64()
	s.Rewind(m)
	if got := s.Uint64(); got != want {
		t.Fatalf("draw after Rewind %d, want %d", got, want)
	}
	back, err := MarkOf(st)
	if err != nil || back != m {
		t.Fatalf("MarkOf(State) = %v, %v; want the mark", back, err)
	}
	if _, err := MarkOf(State("junk")); err == nil {
		t.Fatal("MarkOf accepted a malformed state")
	}
	if allocs := testing.AllocsPerRun(100, func() { s.Rewind(s.Mark()) }); allocs != 0 {
		t.Fatalf("Mark+Rewind allocate %v times", allocs)
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different seeds matched %d/64 draws", same)
	}
}

func TestSplitIsDeterministicAndIndependent(t *testing.T) {
	s1 := New(99).Split("node/1/mobility")
	s2 := New(99).Split("node/1/mobility")
	s3 := New(99).Split("node/2/mobility")
	diff := false
	for i := 0; i < 50; i++ {
		v1, v2, v3 := s1.Uint64(), s2.Uint64(), s3.Uint64()
		if v1 != v2 {
			t.Fatal("same-label splits diverged")
		}
		if v1 != v3 {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different-label splits produced identical streams")
	}
}

func TestSplitDoesNotPerturbSiblingOrder(t *testing.T) {
	// Splitting consumes parent draws, so sibling streams depend on split
	// order; the guarantee tested here is that the same ordered sequence of
	// splits reproduces the same streams.
	p1, p2 := New(5), New(5)
	a1 := p1.Split("a")
	b1 := p1.Split("b")
	a2 := p2.Split("a")
	b2 := p2.Split("b")
	for i := 0; i < 20; i++ {
		if a1.Uint64() != a2.Uint64() || b1.Uint64() != b2.Uint64() {
			t.Fatal("replayed split sequence diverged")
		}
	}
}

func TestUniformBounds(t *testing.T) {
	s := New(3)
	for i := 0; i < 1000; i++ {
		v := s.Uniform(2, 5)
		if v < 2 || v >= 5 {
			t.Fatalf("Uniform(2,5) = %v out of range", v)
		}
	}
}

func TestSlotInBounds(t *testing.T) {
	s := New(4)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := s.SlotIn(8)
		if v < 1 || v > 8 {
			t.Fatalf("SlotIn(8) = %d out of [1,8]", v)
		}
		seen[v] = true
	}
	if len(seen) != 8 {
		t.Fatalf("SlotIn(8) hit %d distinct slots over 1000 draws, want 8", len(seen))
	}
	if got := s.SlotIn(0); got != 1 {
		t.Fatalf("SlotIn(0) = %d, want 1", got)
	}
	if got := s.SlotIn(-5); got != 1 {
		t.Fatalf("SlotIn(-5) = %d, want 1", got)
	}
}

func TestBoolEdges(t *testing.T) {
	s := New(5)
	for i := 0; i < 100; i++ {
		if s.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !s.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
		if s.Bool(-0.5) {
			t.Fatal("Bool(negative) returned true")
		}
		if !s.Bool(1.5) {
			t.Fatal("Bool(>1) returned false")
		}
	}
}

func TestBoolFrequency(t *testing.T) {
	s := New(6)
	n, hits := 20000, 0
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / float64(n)
	if math.Abs(p-0.3) > 0.02 {
		t.Fatalf("Bool(0.3) empirical rate %v, want ~0.3", p)
	}
}

func TestExpMeanAndPositivity(t *testing.T) {
	s := New(7)
	n := 50000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := s.Exp(120)
		if v < 0 || math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("Exp(120) produced %v", v)
		}
		sum += v
	}
	mean := sum / float64(n)
	if math.Abs(mean-120) > 3 {
		t.Fatalf("Exp(120) empirical mean %v, want ~120", mean)
	}
	if s.Exp(0) != 0 || s.Exp(-1) != 0 {
		t.Fatal("Exp with non-positive mean should return 0")
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(8)
	p := s.Perm(10)
	seen := make([]bool, 10)
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("Perm(10) = %v is not a permutation", p)
		}
		seen[v] = true
	}
}

// Property: Uniform never escapes its bounds for any ordered pair.
func TestPropertyUniformInRange(t *testing.T) {
	s := New(11)
	f := func(a, b float64) bool {
		lo, hi := a, b
		if math.IsNaN(lo) || math.IsNaN(hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
			return true // out of scope
		}
		if math.Abs(lo) > 1e150 || math.Abs(hi) > 1e150 {
			return true // extent would overflow float64; out of scope
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		if lo == hi {
			return s.Uniform(lo, hi) == lo
		}
		v := s.Uniform(lo, hi)
		return v >= lo && v < hi || (hi-lo) < 1e-300 // underflow tolerance
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
