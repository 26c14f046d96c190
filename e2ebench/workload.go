package main

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"ldplayer/internal/hierarchy"
	"ldplayer/internal/trace"
	"ldplayer/internal/traceg"
	"ldplayer/internal/zone"
)

// brootTLDs are the TLDs traceg's B-Root generator draws its non-junk query
// names from; the broot workloads' root zone delegates exactly these.
var brootTLDs = []string{
	"com", "net", "org", "arpa", "de", "uk", "jp", "fr", "nl", "br",
	"it", "ru", "info", "io", "edu", "gov", "cn", "au", "ca", "eu",
}

// workload is one traffic mix: a seeded trace generator and the zones
// the server answers it from. All workloads are open loop, paced at
// trace time.
type workload struct {
	name string
	// gen makes the trace for seed and duration, and the zones to serve.
	gen func(seed int64, d time.Duration) (trace.Reader, func() (map[string]*zone.Zone, error), error)
}

var workloads = []workload{
	// The paper's headline workload: thousands of per-source sockets and
	// the pacing wheel do most of the work, and random names mostly miss
	// the server's packed-response cache.
	{
		name: "broot-paced",
		gen: func(seed int64, d time.Duration) (trace.Reader, func() (map[string]*zone.Zone, error), error) {
			g, err := traceg.BRoot(traceg.BRootConfig{
				Duration: d, MedianRate: 10000, Clients: 10000,
				TCPFraction: 0.03, DOFraction: 0.723, Seed: seed,
			})
			return g, rootZone, err
		},
	},
	// The opposite of broot-paced in sources and cache share: few
	// sockets, frequent server cache hits, so per-query cost dominates.
	{
		name: "rec-paced",
		gen: func(seed int64, d time.Duration) (trace.Reader, func() (map[string]*zone.Zone, error), error) {
			g, err := traceg.Recursive(traceg.RecursiveConfig{
				Duration: d, MeanInterArrival: time.Second / 30000, Seed: seed,
			})
			if err != nil {
				return nil, nil, err
			}
			return g, func() (map[string]*zone.Zone, error) {
				h, err := hierarchy.Build(g.Zones(), hierarchy.Options{})
				if err != nil {
					return nil, err
				}
				return h.Zones(), nil
			}, nil
		},
	},
	// The stream path on both sides: per-source connections, and one
	// server goroutine per connection answering through Engine.Respond.
	{
		name: "broot-tcp",
		gen: func(seed int64, d time.Duration) (trace.Reader, func() (map[string]*zone.Zone, error), error) {
			g, err := traceg.BRoot(traceg.BRootConfig{
				Duration: d, MedianRate: 5000, Clients: 10000,
				TCPFraction: 1, DOFraction: 0.723, Seed: seed,
			})
			return g, rootZone, err
		},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// rootZone is a synthesized root zone delegating the broot TLDs.
func rootZone() (map[string]*zone.Zone, error) {
	slds := make([]string, len(brootTLDs))
	for i, t := range brootTLDs {
		slds[i] = "example." + t + "."
	}
	h, err := hierarchy.Build(slds, hierarchy.Options{})
	if err != nil {
		return nil, err
	}
	return map[string]*zone.Zone{".": h.Root}, nil
}

// drain reads every entry of r.
func drain(r trace.Reader) ([]trace.Entry, error) {
	var out []trace.Entry
	for {
		e, err := r.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
}

// sortedOrigins returns the zone origins in a fixed order.
func sortedOrigins(zs map[string]*zone.Zone) []string {
	out := make([]string, 0, len(zs))
	for o := range zs {
		out = append(out, o)
	}
	sort.Strings(out)
	return out
}
