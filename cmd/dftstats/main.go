// Command dftstats analyses a trace-v2 event file (as written by
// dftsim -trace) offline: delivery-delay percentile tables, per-node
// activity summaries, per-message custody chains, and a CSV time series
// of the delivery process.
//
// Usage:
//
//	dftstats trace.jsonl                 overview + percentile table
//	dftstats -nodes trace.jsonl          per-node activity summary
//	dftstats -msg 17 trace.jsonl         custody chain of message 17
//	dftstats -series - trace.jsonl       CSV time series to stdout
//	dftstats -series s.csv -interval 50 trace.jsonl
//
// Traces are JSONL, the only trace-v2 encoding. The custody chain of a
// message is the chronological flattening of its replication tree:
// generation, every transmission and kept/discarded reception, FTD updates
// at senders, drops with their rule, and the first sink delivery.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"

	"dftmsn/internal/packet"
	"dftmsn/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dftstats:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dftstats", flag.ContinueOnError)
	var (
		nodes      = fs.Bool("nodes", false, "print a per-node activity summary")
		msgID      = fs.Uint64("msg", 0, "print the custody chain of one message")
		seriesPath = fs.String("series", "", "write a CSV time series to this file (- for stdout)")
		interval   = fs.Float64("interval", 0, "time-series bucket width in seconds (0 = span/100)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("want exactly one trace file argument, got %d", fs.NArg())
	}
	events, err := telemetry.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	if len(events) == 0 {
		return fmt.Errorf("%s: empty trace", fs.Arg(0))
	}

	switch {
	case *msgID != 0:
		return printCustody(out, events, packet.MessageID(*msgID))
	case *nodes:
		return printNodes(out, events)
	case *seriesPath != "":
		return writeSeries(*seriesPath, out, events, *interval)
	default:
		return printOverview(out, events)
	}
}

// printOverview renders event totals, message fates, the exact
// delivery-delay percentile table, and the drop breakdown.
func printOverview(out io.Writer, events []telemetry.Event) error {
	span := timeSpan(events)
	fmt.Fprintf(out, "%d events over [%.3f, %.3f] s\n", len(events), span[0], span[1])
	counts := make(map[telemetry.EventType]int)
	for _, ev := range events {
		counts[ev.Type]++
	}
	for _, typ := range telemetry.EventTypes() {
		if n := counts[typ]; n > 0 {
			fmt.Fprintf(out, "  %-12s %d\n", typ, n)
		}
	}

	ledger := telemetry.BuildLedger(events)
	status := make(map[string]int)
	for _, id := range ledger.IDs() {
		status[ledger.Message(id).Status()]++
	}
	fmt.Fprintf(out, "messages: %d tracked, %d delivered, %d dropped, %d rejected, %d in-flight\n",
		ledger.Len(), status["delivered"], status["dropped"], status["rejected"], status["in-flight"])

	var delays []float64
	drops := make(map[int32]int)
	for _, ev := range events {
		switch ev.Type {
		case telemetry.EvDeliver:
			delays = append(delays, ev.Value)
		case telemetry.EvDrop:
			drops[ev.Aux]++
		}
	}
	if len(delays) > 0 {
		sort.Float64s(delays)
		fmt.Fprintf(out, "delivery delay percentiles (s), %d deliveries:\n", len(delays))
		fmt.Fprintf(out, "  %8s %8s %8s %8s %8s %8s %8s %8s\n",
			"p10", "p25", "p50", "p75", "p90", "p95", "p99", "max")
		fmt.Fprintf(out, "  %8.1f %8.1f %8.1f %8.1f %8.1f %8.1f %8.1f %8.1f\n",
			percentile(delays, 0.10), percentile(delays, 0.25), percentile(delays, 0.50),
			percentile(delays, 0.75), percentile(delays, 0.90), percentile(delays, 0.95),
			percentile(delays, 0.99), delays[len(delays)-1])
	}
	if len(drops) > 0 {
		fmt.Fprintf(out, "drops:")
		reasons := make([]int32, 0, len(drops))
		for r := range drops {
			reasons = append(reasons, r)
		}
		sort.Slice(reasons, func(i, j int) bool { return reasons[i] < reasons[j] })
		for _, r := range reasons {
			fmt.Fprintf(out, " %d %s;", drops[r], telemetry.DropReasonString(r))
		}
		fmt.Fprintln(out)
	}
	return nil
}

// percentile returns the exact q-quantile of sorted xs with linear
// interpolation between order statistics.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 1 {
		return xs[0]
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return xs[lo]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[hi]*frac
}

// nodeRow tallies one node's activity.
type nodeRow struct {
	gen, tx, rx, deliver, drop, sleep, crash int
}

// printNodes renders one row per node, sorted by node ID.
func printNodes(out io.Writer, events []telemetry.Event) error {
	rows := make(map[packet.NodeID]*nodeRow)
	get := func(id packet.NodeID) *nodeRow {
		r := rows[id]
		if r == nil {
			r = &nodeRow{}
			rows[id] = r
		}
		return r
	}
	for _, ev := range events {
		r := get(ev.Node)
		switch ev.Type {
		case telemetry.EvGen, telemetry.EvGenDrop:
			r.gen++
		case telemetry.EvTx:
			r.tx++
		case telemetry.EvRx:
			r.rx++
		case telemetry.EvDeliver:
			r.deliver++
		case telemetry.EvDrop:
			r.drop++
		case telemetry.EvSleep:
			r.sleep++
		case telemetry.EvCrash:
			r.crash++
		}
	}
	ids := make([]packet.NodeID, 0, len(rows))
	for id := range rows {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	fmt.Fprintf(out, "%-6s %6s %6s %6s %8s %6s %6s %6s\n",
		"node", "gen", "tx", "rx", "deliver", "drop", "sleep", "crash")
	for _, id := range ids {
		r := rows[id]
		fmt.Fprintf(out, "%-6d %6d %6d %6d %8d %6d %6d %6d\n",
			id, r.gen, r.tx, r.rx, r.deliver, r.drop, r.sleep, r.crash)
	}
	return nil
}

// printCustody renders one message's full custody chain.
func printCustody(out io.Writer, events []telemetry.Event, id packet.MessageID) error {
	c := telemetry.BuildLedger(events).Message(id)
	if c == nil {
		return fmt.Errorf("message %d not in trace", id)
	}
	fmt.Fprint(out, c.Format())
	return nil
}

// writeSeries buckets the event stream into fixed intervals and writes
// cumulative generation/delivery/drop counts and the running delivery
// ratio as CSV.
func writeSeries(path string, stdout io.Writer, events []telemetry.Event, interval float64) error {
	dst := stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close() // backstop; the happy path closes explicitly
		dst = f
	}
	span := timeSpan(events)
	if interval <= 0 {
		interval = (span[1] - span[0]) / 100
		if interval <= 0 {
			interval = 1
		}
	}
	fmt.Fprintln(dst, "t,generated,delivered,dropped,delivery_ratio")
	var gen, delivered, dropped int
	i := 0
	for t := span[0] + interval; ; t += interval {
		for i < len(events) && events[i].Time <= t {
			switch events[i].Type {
			case telemetry.EvGen, telemetry.EvGenDrop:
				gen++
			case telemetry.EvDeliver:
				delivered++
			case telemetry.EvDrop:
				dropped++
			}
			i++
		}
		ratio := 0.0
		if gen > 0 {
			ratio = float64(delivered) / float64(gen)
		}
		fmt.Fprintf(dst, "%s,%d,%d,%d,%.4f\n", strconv.FormatFloat(t, 'g', -1, 64),
			gen, delivered, dropped, ratio)
		if i >= len(events) {
			break
		}
	}
	if f, ok := dst.(*os.File); ok && path != "-" {
		return f.Close()
	}
	return nil
}

// timeSpan returns the [min, max] event times.
func timeSpan(events []telemetry.Event) [2]float64 {
	var span [2]float64
	for i, ev := range events {
		if i == 0 || ev.Time < span[0] {
			span[0] = ev.Time
		}
		if ev.Time > span[1] {
			span[1] = ev.Time
		}
	}
	return span
}
