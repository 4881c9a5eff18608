package packet

import (
	"math"
	"testing"
)

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		KindPreamble: "PREAMBLE",
		KindRTS:      "RTS",
		KindCTS:      "CTS",
		KindSchedule: "SCHEDULE",
		KindData:     "DATA",
		KindAck:      "ACK",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
	if Kind(0).String() != "KIND(0)" {
		t.Errorf("unknown kind string = %q", Kind(0).String())
	}
}

func TestDefaultSizes(t *testing.T) {
	sz := DefaultSizes()
	if sz.ControlBits != 50 || sz.DataBits != 1000 {
		t.Fatalf("DefaultSizes = %+v, want paper's 50/1000", sz)
	}
	if err := sz.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Sizes{ControlBits: 0, DataBits: 10}).Validate(); err == nil {
		t.Fatal("zero control bits accepted")
	}
	if err := (Sizes{ControlBits: 50, DataBits: -1}).Validate(); err == nil {
		t.Fatal("negative data bits accepted")
	}
}

func TestAirBits(t *testing.T) {
	sz := DefaultSizes()
	ctrl := []Frame{
		&Preamble{From: 1},
		&RTS{From: 1, Window: 4},
		&CTS{From: 2, To: 1},
		&Schedule{From: 1},
		&Ack{From: 2, To: 1},
	}
	for _, f := range ctrl {
		if got := f.AirBits(sz); got != 50 {
			t.Errorf("%v AirBits = %d, want 50", f.Kind(), got)
		}
	}
	if got := (&Data{From: 1}).AirBits(sz); got != 1000 {
		t.Errorf("Data AirBits = %d, want 1000 (default)", got)
	}
	if got := (&Data{From: 1, PayloadBits: 256}).AirBits(sz); got != 256 {
		t.Errorf("Data AirBits = %d, want explicit 256", got)
	}
}

func TestSrcAndKind(t *testing.T) {
	cases := []struct {
		f    Frame
		kind Kind
		src  NodeID
	}{
		{&Preamble{From: 3}, KindPreamble, 3},
		{&RTS{From: 4}, KindRTS, 4},
		{&CTS{From: 5}, KindCTS, 5},
		{&Schedule{From: 6}, KindSchedule, 6},
		{&Data{From: 7}, KindData, 7},
		{&Ack{From: 8}, KindAck, 8},
	}
	for _, c := range cases {
		if c.f.Kind() != c.kind {
			t.Errorf("Kind = %v, want %v", c.f.Kind(), c.kind)
		}
		if c.f.Src() != c.src {
			t.Errorf("Src = %v, want %v", c.f.Src(), c.src)
		}
	}
}

func TestValidate(t *testing.T) {
	good := []Frame{
		&RTS{From: 1, Xi: 0.5, FTD: 0, Window: 1},
		&RTS{From: 1, Xi: 1, FTD: 1, Window: 64},
		&CTS{From: 1, To: 2, Xi: 0.7, BufferAvail: 0},
		&Schedule{From: 1, Entries: []ScheduleEntry{{Node: 2, FTD: 0.5}}},
		&Data{From: 1, PayloadBits: 100},
		&Preamble{From: 1},
		&Ack{From: 1, To: 2},
	}
	for _, f := range good {
		if err := Validate(f); err != nil {
			t.Errorf("Validate(%v): %v", f.Kind(), err)
		}
	}
	bad := []Frame{
		&RTS{From: 1, Xi: -0.1, Window: 1},
		&RTS{From: 1, Xi: 0.5, FTD: 1.1, Window: 1},
		&RTS{From: 1, Xi: 0.5, FTD: 0.5, Window: 0},
		&RTS{From: 1, Xi: math.NaN(), Window: 1},
		&CTS{From: 1, To: 2, Xi: 2},
		&CTS{From: 1, To: 2, Xi: 0.5, BufferAvail: -1},
		&Schedule{From: 1, Entries: []ScheduleEntry{{Node: 2, FTD: -0.5}}},
		&Data{From: 1, PayloadBits: -7},
	}
	for _, f := range bad {
		if err := Validate(f); err == nil {
			t.Errorf("Validate accepted invalid %v %+v", f.Kind(), f)
		}
	}
}
