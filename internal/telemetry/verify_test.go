package telemetry

import (
	"strings"
	"testing"
)

// expectOne asserts Verify reports exactly one violation mentioning want.
func expectOne(t *testing.T, events []Event, want string) {
	t.Helper()
	vs := Verify(events)
	if len(vs) != 1 || !strings.Contains(vs[0].Reason, want) {
		t.Fatalf("violations = %v, want one mentioning %q", vs, want)
	}
}

func TestVerifyCleanTrace(t *testing.T) {
	events := []Event{
		{Time: 1, Node: 1, Type: EvGen, Msg: 1},
		{Time: 1.5, Node: 2, Type: EvCTS, Peer: 1},
		{Time: 2, Node: 1, Type: EvTx, Msg: 1, Count: 1},
		{Time: 2.1, Node: 2, Type: EvRx, Msg: 1, Peer: 1},
		{Time: 2.15, Node: 2, Type: EvAck, Msg: 1, Peer: 1},
		{Time: 2.2, Node: 1, Type: EvTxOutcome, Count: 1, Aux: 1},
		{Time: 3, Node: 1, Type: EvSleep},
		{Time: 4, Node: 1, Type: EvGen, Msg: 2}, // sensing while asleep is fine
		{Time: 5, Node: 1, Type: EvDrop, Msg: 2, Aux: DropThreshold},
		{Time: 6, Node: 1, Type: EvWake},
		{Time: 7, Node: 1, Type: EvSleep},
		{Time: 8, Node: 1, Type: EvDied},
	}
	if vs := Verify(events); len(vs) != 0 {
		t.Fatalf("clean trace produced violations: %v", vs)
	}
}

func TestVerifyCatchesDoubleSleep(t *testing.T) {
	expectOne(t, []Event{
		{Time: 1, Node: 1, Type: EvSleep},
		{Time: 2, Node: 1, Type: EvSleep},
	}, "already asleep")
}

func TestVerifyCatchesWakeWithoutSleep(t *testing.T) {
	expectOne(t, []Event{{Time: 1, Node: 1, Type: EvWake}}, "without preceding sleep")
}

func TestVerifyCatchesActivityWhileAsleep(t *testing.T) {
	for _, typ := range []EventType{EvTx, EvRx, EvTxOutcome, EvCTS, EvAck} {
		expectOne(t, []Event{
			{Time: 1, Node: 1, Type: EvSleep},
			{Time: 2, Node: 1, Type: typ},
		}, "while asleep")
	}
}

func TestVerifyCatchesEventsAfterDeath(t *testing.T) {
	for _, typ := range []EventType{EvKill, EvDied} {
		expectOne(t, []Event{
			{Time: 1, Node: 1, Type: typ},
			{Time: 2, Node: 1, Type: EvRx},
			{Time: 3, Node: 2, Type: EvGen}, // other nodes unaffected
		}, "after death")
	}
}

func TestVerifyAllowsCrashRecoverCycle(t *testing.T) {
	events := []Event{
		{Time: 1, Node: 1, Type: EvGen, Msg: 1},
		{Time: 2, Node: 1, Type: EvCrash, Count: 1},
		{Time: 2, Node: 1, Type: EvDrop, Msg: 1, Aux: DropCrash}, // the wiped copy
		{Time: 3, Node: 1, Type: EvReboot},
		{Time: 3.1, Node: 1, Type: EvWake}, // reboot wake needs no sleep
		{Time: 4, Node: 1, Type: EvSleep},
		{Time: 4.5, Node: 1, Type: EvCrash}, // crash while asleep
		{Time: 5, Node: 1, Type: EvReboot},
		{Time: 5.1, Node: 1, Type: EvWake},
		{Time: 6, Node: 1, Type: EvRx},
	}
	if vs := Verify(events); len(vs) != 0 {
		t.Fatalf("churn trace produced violations: %v", vs)
	}
}

func TestVerifyCatchesEventsWhileCrashed(t *testing.T) {
	for _, ev := range []Event{
		{Time: 2, Node: 1, Type: EvRx},
		{Time: 2, Node: 1, Type: EvDrop, Aux: DropThreshold}, // only crash drops pass
	} {
		expectOne(t, []Event{
			{Time: 1, Node: 1, Type: EvCrash},
			ev,
			{Time: 3, Node: 2, Type: EvGen}, // other nodes unaffected
		}, "while crashed")
	}
}

func TestVerifyCatchesRadioActivityWhileRebooting(t *testing.T) {
	expectOne(t, []Event{
		{Time: 1, Node: 1, Type: EvCrash},
		{Time: 2, Node: 1, Type: EvReboot},
		{Time: 2.5, Node: 1, Type: EvRx}, // radio up before the boot wake
	}, "before boot wake")
}

func TestVerifyCatchesSleepWhileRebooting(t *testing.T) {
	expectOne(t, []Event{
		{Time: 1, Node: 1, Type: EvCrash},
		{Time: 2, Node: 1, Type: EvReboot},
		{Time: 2.5, Node: 1, Type: EvSleep}, // must boot through a wake first
	}, "before the boot wake")
}

func TestVerifyCatchesRecoverWithoutCrash(t *testing.T) {
	expectOne(t, []Event{{Time: 1, Node: 1, Type: EvReboot}}, "not crashed")
}

func TestVerifyCatchesTimeReversal(t *testing.T) {
	expectOne(t, []Event{
		{Time: 5, Node: 1, Type: EvGen},
		{Time: 4, Node: 2, Type: EvGen},
	}, "backwards")
}

func TestViolationString(t *testing.T) {
	v := Violation{Event{Time: 1.5, Node: 3, Type: EvWake}, "x"}
	if got, want := v.String(), "t=1.500000 node=3 wake: x"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}
