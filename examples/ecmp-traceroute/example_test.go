package main

// Example runs the scenario and pins what it prints, so go test checks
// the narrated output.
func Example() {
	main()
	// Output:
	// ECMP-aware traceroute to 2001:db8:fff::1
	// (r1 and r2a publish End.OAMP; r2b/r2c answer with legacy ICMP)
	//
	// flow label 1:
	//  1  2001:db8:101::1  [OAMP ecmp=3: [2001:db8:102::1 2001:db8:103::1 2001:db8:104::1]]
	//  2  2001:db8:102::1  [OAMP ecmp=1: [2001:db8:fff::1]]
	//  3  2001:db8:fff::1  (destination)
	//
	// flow label 2:
	//  1  2001:db8:101::1  [OAMP ecmp=3: [2001:db8:102::1 2001:db8:103::1 2001:db8:104::1]]
	//  2  2001:db8:102::1  [OAMP ecmp=1: [2001:db8:fff::1]]
	//  3  2001:db8:fff::1  (destination)
	//
	// flow label 5:
	//  1  2001:db8:101::1  [OAMP ecmp=3: [2001:db8:102::1 2001:db8:103::1 2001:db8:104::1]]
	//  2  2001:db8:104::1  [icmp]
	//  3  2001:db8:fff::1  (destination)
	//
	// End.OAMP reveals the full ECMP fan-out at hop 1 in a single
	// query; varying the flow label explores the individual paths.
}
