package main

import (
	"fmt"
	"sort"
	"time"

	"sspubsub/internal/sim"
	"sspubsub/internal/wire"
)

// codecCost is the wire codec's cost on a captured message mix.
type codecCost struct {
	encodeNs, decodeNs, bytes float64 // per message, weighted by the mix
	lines                     []string
}

// replayCodec times wire.AppendBody, wire.Marshal and wire.Unmarshal on the
// messages a traced run actually sent, per body type, and averages them
// over the run's mix. Each loop repeats until it has run for at least
// minReplay, so short types are timed over many calls.
func replayCodec(msgs []sim.Message) codecCost {
	const minReplay = 20 * time.Millisecond
	byType := make(map[string][]sim.Message)
	for _, m := range msgs {
		if wire.Encodable(m.Body) {
			n := sim.TypeName(m.Body)
			byType[n] = append(byType[n], m)
		}
	}
	names := make([]string, 0, len(byType))
	for n := range byType {
		names = append(names, n)
	}
	sort.Strings(names)

	var c codecCost
	total := 0
	for _, n := range names {
		group := byType[n]
		frames := make([][]byte, len(group))
		size := 0
		for i, m := range group {
			f, err := wire.Marshal(m)
			if err != nil {
				panic(fmt.Sprintf("wire.Marshal of a sent %s: %v", n, err)) // the transport encoded it
			}
			frames[i] = f
			size += len(f)
		}
		var buf []byte
		appendNs := timePerCall(len(group), minReplay, func() {
			for _, m := range group {
				buf, _ = wire.AppendBody(buf[:0], m.Body)
			}
		})
		marshalNs := timePerCall(len(group), minReplay, func() {
			for _, m := range group {
				_, _ = wire.Marshal(m)
			}
		})
		decodeNs := timePerCall(len(group), minReplay, func() {
			for _, f := range frames {
				if _, err := wire.Unmarshal(f); err != nil {
					panic(fmt.Sprintf("wire.Unmarshal of a %s frame: %v", n, err))
				}
			}
		})
		bytes := float64(size) / float64(len(group))
		c.lines = append(c.lines, fmt.Sprintf("codec %-24s n=%-6d AppendBody %7.1f ns  Marshal %7.1f ns  Unmarshal %7.1f ns  %6.1f B/frame",
			n, len(group), appendNs, marshalNs, decodeNs, bytes))
		w := float64(len(group))
		c.encodeNs += appendNs * w
		c.decodeNs += decodeNs * w
		c.bytes += bytes * w
		total += len(group)
	}
	if total > 0 {
		c.encodeNs /= float64(total)
		c.decodeNs /= float64(total)
		c.bytes /= float64(total)
	}
	return c
}

// timePerCall runs pass (which makes n calls) until at least min has
// elapsed and returns the mean time per call in ns.
func timePerCall(n int, min time.Duration, pass func()) float64 {
	calls := 0
	start := time.Now()
	for time.Since(start) < min {
		pass()
		calls += n
	}
	return float64(time.Since(start).Nanoseconds()) / float64(calls)
}
