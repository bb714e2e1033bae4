package cluster

import (
	"fmt"
	"testing"
	"time"

	"aggcache/internal/fsnet"
)

// The routed-path layer benchmarks: one client of node 0 of an in-process
// 3-node loopback ring cycles through the paths of one owner, so every
// client miss crosses node 0's router. Local opens paths node 0 owns (the
// declined path, served by node 0's own aggregating cache), Mirror opens
// node 1's paths from node 0's warm mirror, and Forward opens them with
// the mirror disabled, so every miss is an owner hop.

// benchRoutedClientCache keeps the client cache below the cycled set, so
// opens keep reaching node 0 as in BenchmarkOpenLoopback.
const benchRoutedClientCache = 4

func benchOpenRouted(b *testing.B, owner int, mut func(i int, cfg *Config)) {
	tc := startCluster(b, 3, mut)
	var paths []string
	for f := 0; f < testFiles; f++ {
		p := fmt.Sprintf("/data/f%03d", f)
		if tc.nodes[0].Owner(p) == tc.addrs[owner] {
			paths = append(paths, p)
		}
	}
	client := tc.client(b, 0, fsnet.ClientConfig{CacheCapacity: benchRoutedClientCache})
	// Two warm-up passes: the first dials the peers and teaches the owner
	// the cycle; the clock then ages every mirrored group out, so the
	// second pass mirrors the learned groups rather than first-sight
	// singletons. No clock moves after that.
	for pass := 0; pass < 2; pass++ {
		for _, p := range paths {
			if _, err := client.Open(p); err != nil {
				b.Fatal(err)
			}
		}
		tc.clk.Advance(time.Hour)
	}
	before := tc.nodes[0].Stats()
	srvBefore := tc.servers[0].Stats().Requests
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Open(paths[i%len(paths)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	after := tc.nodes[0].Stats()
	served := float64(tc.servers[0].Stats().Requests - srvBefore)
	b.ReportMetric(100*served/float64(b.N), "server_%")
	if served > 0 {
		b.ReportMetric(100*float64(after.MirrorHits-before.MirrorHits)/served, "mirror_%")
		b.ReportMetric(100*float64(after.ForwardedOpens-before.ForwardedOpens)/served, "forward_%")
	}
}

// BenchmarkOpenRoutedLocal: owned opens take the server's inline path.
func BenchmarkOpenRoutedLocal(b *testing.B) {
	benchOpenRouted(b, 0, nil)
}

// BenchmarkOpenRoutedMirror: remote opens answered inline by the mirror.
func BenchmarkOpenRoutedMirror(b *testing.B) {
	benchOpenRouted(b, 1, func(i int, cfg *Config) {
		cfg.MirrorTTL = time.Minute
	})
}

// BenchmarkOpenRoutedForward: remote opens forwarded to the owner on a
// handler goroutine, one peer round trip each.
func BenchmarkOpenRoutedForward(b *testing.B) {
	benchOpenRouted(b, 1, func(i int, cfg *Config) {
		cfg.MirrorCapacity = -1
	})
}
