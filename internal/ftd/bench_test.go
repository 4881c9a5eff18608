package ftd

import "testing"

func BenchmarkSelectReceivers(b *testing.B) {
	cands := make([]Candidate, 16)
	for i := range cands {
		cands[i] = Candidate{Node: i, Xi: 0.95 - float64(i)*0.05, BufferAvail: 4}
	}
	b.ReportAllocs()
	var out []Candidate
	for i := 0; i < b.N; i++ {
		out = SelectReceivers(0.1, 0.2, 0.9, cands)
	}
	_ = out
}

func BenchmarkCopyFTD(b *testing.B) {
	others := []float64{0.3, 0.5, 0.7}
	b.ReportAllocs()
	var v float64
	for i := 0; i < b.N; i++ {
		v = CopyFTD(0.2, 0.4, others)
	}
	_ = v
}

func BenchmarkDeliveryProbUpdate(b *testing.B) {
	d, err := NewDeliveryProb(0.1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			d.OnTransmission(0.6)
		} else {
			d.RestoreValue(d.PeekTimeout(d.Value()))
		}
	}
}
