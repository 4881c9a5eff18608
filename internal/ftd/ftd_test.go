package ftd

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeliveryProbValidation(t *testing.T) {
	for _, a := range []float64{-0.1, 1.1, math.NaN()} {
		if _, err := NewDeliveryProb(a); err == nil {
			t.Errorf("alpha %v accepted", a)
		}
	}
	for _, a := range []float64{0, 0.5, 1} {
		if _, err := NewDeliveryProb(a); err != nil {
			t.Errorf("alpha %v rejected", a)
		}
	}
}

func TestDeliveryProbStartsAtZero(t *testing.T) {
	d, err := NewDeliveryProb(0.3)
	if err != nil {
		t.Fatal(err)
	}
	if d.Value() != 0 {
		t.Fatalf("initial xi = %v, want 0", d.Value())
	}
}

func TestDeliveryProbTransmissionToSink(t *testing.T) {
	d, err := NewDeliveryProb(0.25)
	if err != nil {
		t.Fatal(err)
	}
	// Transmitting to a sink (xi_k = 1): xi = (1-a)*0 + a*1 = a.
	d.OnTransmission(1)
	if math.Abs(d.Value()-0.25) > 1e-12 {
		t.Fatalf("xi after sink contact = %v, want 0.25", d.Value())
	}
	// Again: (0.75)*0.25 + 0.25 = 0.4375.
	d.OnTransmission(1)
	if math.Abs(d.Value()-0.4375) > 1e-12 {
		t.Fatalf("xi = %v, want 0.4375", d.Value())
	}
}

func TestDeliveryProbTimeoutDecay(t *testing.T) {
	d, err := NewDeliveryProb(0.5)
	if err != nil {
		t.Fatal(err)
	}
	d.OnTransmission(1) // 0.5
	if got := d.PeekTimeout(d.Value()); math.Abs(got-0.25) > 1e-12 || d.Value() != 0.5 {
		t.Fatalf("PeekTimeout = %v (tracker %v), want 0.25 without mutating", got, d.Value())
	}
	d.RestoreValue(d.PeekTimeout(d.Value()))
	if math.Abs(d.Value()-0.25) > 1e-12 {
		t.Fatalf("xi after timeout = %v, want 0.25", d.Value())
	}
	// Repeated decay converges to zero.
	for i := 0; i < 200; i++ {
		d.RestoreValue(d.PeekTimeout(d.Value()))
	}
	if d.Value() > 1e-12 {
		t.Fatalf("xi did not decay to ~0: %v", d.Value())
	}
}

func TestDeliveryProbReset(t *testing.T) {
	d, err := NewDeliveryProb(0.5)
	if err != nil {
		t.Fatal(err)
	}
	d.OnTransmission(1)
	d.Reset()
	if d.Value() != 0 {
		t.Fatalf("reset sensor xi = %v", d.Value())
	}
}

func TestDeliveryProbClampsBadInput(t *testing.T) {
	d, err := NewDeliveryProb(0.5)
	if err != nil {
		t.Fatal(err)
	}
	d.OnTransmission(5)  // clamped to 1
	d.OnTransmission(-3) // clamped to 0
	d.OnTransmission(math.NaN())
	v := d.Value()
	if v < 0 || v > 1 || math.IsNaN(v) {
		t.Fatalf("xi escaped [0,1]: %v", v)
	}
}

func TestCopyFTDMatchesEq2(t *testing.T) {
	// F_j = 1 - (1-Fi)(1-xi_i) * prod(1-xi_m, m != j)
	senderFTD, senderXi := 0.2, 0.3
	others := []float64{0.5, 0.4}
	want := 1 - (1-0.2)*(1-0.3)*(1-0.5)*(1-0.4)
	if got := CopyFTD(senderFTD, senderXi, others); math.Abs(got-want) > 1e-12 {
		t.Fatalf("CopyFTD = %v, want %v", got, want)
	}
}

func TestCopyFTDNewMessageSingleReceiver(t *testing.T) {
	// Fresh message (FTD 0), sender xi 0, no other receivers: the copy has
	// FTD 0 — no one else covers it.
	if got := CopyFTD(0, 0, nil); got != 0 {
		t.Fatalf("CopyFTD = %v, want 0", got)
	}
	// Sender keeps a copy and has xi=0.6: receiver copy covered w.p. 0.6.
	if got := CopyFTD(0, 0.6, nil); math.Abs(got-0.6) > 1e-12 {
		t.Fatalf("CopyFTD = %v, want 0.6", got)
	}
}

func TestSenderFTDMatchesEq3(t *testing.T) {
	before := 0.1
	xis := []float64{0.5, 0.25}
	want := 1 - (1-0.1)*(1-0.5)*(1-0.25)
	if got := SenderFTD(before, xis); math.Abs(got-want) > 1e-12 {
		t.Fatalf("SenderFTD = %v, want %v", got, want)
	}
}

func TestSenderFTDSinkReceiver(t *testing.T) {
	// Multicasting to a sink (xi=1) makes the local copy fully covered.
	if got := SenderFTD(0, []float64{1}); got != 1 {
		t.Fatalf("SenderFTD with sink = %v, want 1", got)
	}
}

func TestSenderFTDEmptySetIdentity(t *testing.T) {
	if got := SenderFTD(0.37, nil); math.Abs(got-0.37) > 1e-12 {
		t.Fatalf("SenderFTD with empty set = %v, want unchanged 0.37", got)
	}
}

func TestSelectReceiversStopsAtThreshold(t *testing.T) {
	// Candidates sorted by decreasing xi. Sender xi 0.1, msg FTD 0,
	// threshold 0.8. First candidate alone gives 0.7 <= 0.8, two give
	// 1-(0.3)(0.4)=0.88 > 0.8, so exactly two are chosen.
	cands := []Candidate{
		{Node: 1, Xi: 0.7, BufferAvail: 5},
		{Node: 2, Xi: 0.6, BufferAvail: 5},
		{Node: 3, Xi: 0.5, BufferAvail: 5},
	}
	got := SelectReceivers(0.1, 0, 0.8, cands)
	if len(got) != 2 || got[0].Node != 1 || got[1].Node != 2 {
		t.Fatalf("selected %+v, want nodes [1 2]", got)
	}
}

func TestSelectReceiversSkipsUnqualified(t *testing.T) {
	cands := []Candidate{
		{Node: 1, Xi: 0.9, BufferAvail: 0}, // no buffer
		{Node: 2, Xi: 0.2, BufferAvail: 5}, // xi too low
		{Node: 3, Xi: 0.6, BufferAvail: 1}, // qualified
	}
	got := SelectReceivers(0.5, 0, 0.99, cands)
	if len(got) != 1 || got[0].Node != 3 {
		t.Fatalf("selected %+v, want node 3 only", got)
	}
}

func TestSelectReceiversEqualXiNotQualified(t *testing.T) {
	// The paper requires strictly higher delivery probability.
	cands := []Candidate{{Node: 1, Xi: 0.5, BufferAvail: 5}}
	if got := SelectReceivers(0.5, 0, 0.9, cands); len(got) != 0 {
		t.Fatalf("equal-xi candidate selected: %+v", got)
	}
}

func TestSelectReceiversEmptyAndNil(t *testing.T) {
	if got := SelectReceivers(0.5, 0, 0.9, nil); got == nil || len(got) != 0 {
		t.Fatalf("nil candidates: got %v, want empty non-nil", got)
	}
}

func TestSelectReceiversAlreadyCoveredMessage(t *testing.T) {
	// A message whose FTD already exceeds the threshold selects at most the
	// first qualified candidate (the loop breaks after checking the
	// aggregate, which already exceeds R even with an empty set... the
	// paper's loop checks after each add, so with FTD > R it still adds the
	// first qualified candidate? No: the check happens after the append,
	// but with an empty selection the aggregate equals the FTD itself,
	// which is checked only after the first append. We mirror the paper's
	// pseudocode exactly: the break test runs after each candidate is
	// considered, so the first qualified candidate is added and then the
	// loop exits.)
	cands := []Candidate{
		{Node: 1, Xi: 0.9, BufferAvail: 1},
		{Node: 2, Xi: 0.8, BufferAvail: 1},
	}
	got := SelectReceivers(0.1, 0.95, 0.9, cands)
	if len(got) != 1 {
		t.Fatalf("selected %d receivers for nearly-covered message, want 1", len(got))
	}
}

// Property: FTD formulas always stay in [0,1] and adding receivers never
// decreases the sender FTD.
func TestPropertyFTDBoundsAndMonotonicity(t *testing.T) {
	f := func(before float64, raw []float64) bool {
		b := math.Mod(math.Abs(before), 1)
		xis := make([]float64, 0, len(raw))
		for _, r := range raw {
			if math.IsNaN(r) || math.IsInf(r, 0) {
				continue
			}
			xis = append(xis, math.Mod(math.Abs(r), 1))
		}
		prev := b
		for i := 1; i <= len(xis); i++ {
			v := SenderFTD(b, xis[:i])
			if v < 0 || v > 1 || v+1e-12 < prev {
				return false
			}
			prev = v
		}
		c := CopyFTD(b, 0.5, xis)
		return c >= 0 && c <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: the selection's aggregate either exceeds the threshold or every
// qualified candidate was taken.
func TestPropertySelectionCoversOrExhausts(t *testing.T) {
	f := func(rawXis []float64, senderRaw, thresholdRaw float64) bool {
		senderXi := math.Mod(math.Abs(senderRaw), 1)
		threshold := math.Mod(math.Abs(thresholdRaw), 1)
		cands := make([]Candidate, 0, len(rawXis))
		for i, r := range rawXis {
			if math.IsNaN(r) || math.IsInf(r, 0) {
				continue
			}
			cands = append(cands, Candidate{Node: i, Xi: math.Mod(math.Abs(r), 1), BufferAvail: 1})
		}
		// Sort descending by xi (insertion sort, small n).
		for i := 1; i < len(cands); i++ {
			for j := i; j > 0 && cands[j].Xi > cands[j-1].Xi; j-- {
				cands[j], cands[j-1] = cands[j-1], cands[j]
			}
		}
		sel := SelectReceivers(senderXi, 0, threshold, cands)
		xis := make([]float64, len(sel))
		qualified := 0
		for _, c := range cands {
			if c.Xi > senderXi {
				qualified++
			}
		}
		for i, c := range sel {
			if c.Xi <= senderXi { // must all be qualified
				return false
			}
			xis[i] = c.Xi
		}
		agg := Aggregate(0, xis)
		return agg > threshold || len(sel) == qualified
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
