package topo

import (
	"fmt"

	"srv6bpf/internal/netsim"
)

// FatTree builds a k-ary fat-tree (Al-Fares et al.): k pods, each
// with k/2 edge and k/2 aggregation switches, k/2 hosts per edge
// switch, and (k/2)^2 core switches — k^3/4 hosts and 5k^2/4
// switches in total (k=8: 128 hosts, 80 switches, 208 nodes).
//
// Nodes are created pod by pod (edges, aggregations, then the pod's
// hosts) with the cores last, so netsim's contiguous block partition
// keeps pods shard-local and only pod-to-core links cross shards.
// Routing is shortest-path with full ECMP (installRoutes), matching
// the classic two-level fat-tree routing: up over all uplinks, down
// along the unique path.
func FatTree(sim *netsim.Sim, k int, opts Opts) (*Network, error) {
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("topo: fat-tree arity must be even and >= 2, got %d", k)
	}
	opts.fill()
	b := newBuilder(sim)
	half := k / 2

	edges := make([][]*netsim.Node, k)
	aggs := make([][]*netsim.Node, k)
	for p := 0; p < k; p++ {
		edges[p] = make([]*netsim.Node, half)
		aggs[p] = make([]*netsim.Node, half)
		for e := 0; e < half; e++ {
			edges[p][e] = b.addSwitch(fmt.Sprintf("p%d-e%d", p, e), opts.SwitchCost())
		}
		for a := 0; a < half; a++ {
			aggs[p][a] = b.addSwitch(fmt.Sprintf("p%d-a%d", p, a), opts.SwitchCost())
		}
		for e := 0; e < half; e++ {
			for a := 0; a < half; a++ {
				b.connect(edges[p][e], aggs[p][a], opts.PodLink)
			}
		}
		for e := 0; e < half; e++ {
			for h := 0; h < half; h++ {
				host := b.addHost(fmt.Sprintf("p%d-e%d-h%d", p, e, h), opts.HostCost())
				b.connect(host, edges[p][e], opts.HostLink)
			}
		}
	}
	for c := 0; c < half*half; c++ {
		core := b.addSwitch(fmt.Sprintf("c%d", c), opts.SwitchCost())
		// Core c links to aggregation switch c/half of every pod.
		a := c / half
		for p := 0; p < k; p++ {
			b.connect(core, aggs[p][a], opts.Link)
		}
	}
	return b.installRoutes()
}
