// Command srv6sim serves the observability plane of a continuously
// running SRv6 lab: the 3-node line src -- R -- dst with a Tag++
// End.BPF SID on R, a steady UDP flow through the SID and a TCP
// transfer alongside it.
//
// Usage:
//
//	srv6sim [-http addr] [-shards N] [-obs-dump dir]
//
// It exposes over HTTP: /metrics (Prometheus text), /stats.json
// (metrics + bpftool-style program stats + engine time series), /trace
// (Chrome trace_event dump of the packet flight recorder) and
// /debug/pprof. With -obs-dump it instead writes those artifacts to a
// directory and exits (see OBSERVABILITY.md).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/netip"
	"os"

	"srv6bpf/internal/netem"
	"srv6bpf/internal/netsim"
)

var (
	srcAddr = netip.MustParseAddr("2001:db8:1::1")
	dstAddr = netip.MustParseAddr("2001:db8:2::1")
	rtrAddr = netip.MustParseAddr("2001:db8:10::1")
	sid     = netip.MustParseAddr("fc00:10::1")
)

// errUsage reports a command line the flag set has already refused,
// usage printed.
var errUsage = errors.New("usage")

func main() {
	switch err := run(os.Args[1:], os.Stdout); {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "srv6sim:", err)
		os.Exit(1)
	}
}

// run parses args and serves until the listener fails, or, with
// -obs-dump, writes the artifacts and returns.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("srv6sim", flag.ContinueOnError)
	httpAddr := fs.String("http", "localhost:8080", "listen address")
	shards := fs.Int("shards", 1, "shard count")
	obsDump := fs.String("obs-dump", "", "write observability artifacts to this directory and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}
	if fs.NArg() > 0 {
		fs.Usage()
		return errUsage
	}
	return serve(stdout, *httpAddr, *shards, *obsDump)
}

// line builds src -- R -- dst and returns the three nodes.
func line() (*netsim.Sim, *netsim.Node, *netsim.Node, *netsim.Node, error) {
	sim := netsim.New(1)
	a := sim.AddNode("src", netsim.HostCostModel())
	r := sim.AddNode("R", netsim.ServerCostModel())
	b := sim.AddNode("dst", netsim.HostCostModel())
	a.AddAddress(srcAddr)
	r.AddAddress(rtrAddr)
	b.AddAddress(dstAddr)
	fast := netem.Config{RateBps: 10_000_000_000, DelayNs: 10 * netsim.Microsecond}
	aIf, raIf := netsim.ConnectSymmetric(a, r, fast)
	rbIf, bIf := netsim.ConnectSymmetric(r, b, fast)
	for _, rt := range []struct {
		n      *netsim.Node
		prefix string
		via    *netsim.Iface
	}{
		{a, "::/0", aIf},
		{b, "::/0", bIf},
		{r, "2001:db8:1::/48", raIf},
		{r, "2001:db8:2::/48", rbIf},
	} {
		route := &netsim.Route{Prefix: netip.MustParsePrefix(rt.prefix), Kind: netsim.RouteForward, Nexthops: []netsim.Nexthop{{Iface: rt.via}}}
		if err := rt.n.AddRoute(route); err != nil {
			return nil, nil, nil, nil, err
		}
	}
	return sim, a, r, b, nil
}
