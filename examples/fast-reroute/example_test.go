package main

// Example runs the scenario and pins what it prints, so go test checks
// the narrated output.
func Example() {
	main()
	// Output:
	// t=  50.0 ms  PRIMARY LINK CUT (scheduled)
	// t= 120.0 ms  primary link restore (scheduled)
	//
	// t=  65.0 ms  detector: neighbour 1 DOWN -> steering onto backup [fc00:30::e, fc00:21::d6]
	// t= 125.0 ms  detector: neighbour 1 UP   -> back on the primary SID fc00:20::d6
	// delivered per 10 ms bin (40 kpps offered -> 400/bin when healthy):
	//     0- 10 ms   396
	//    10- 20 ms   400
	//    20- 30 ms   400
	//    30- 40 ms   400
	//    40- 50 ms   399  <- link cut
	//    50- 60 ms     0
	//    60- 70 ms   195
	//    70- 80 ms   400
	//    80- 90 ms   400
	//    90-100 ms   400
	//   100-110 ms   400
	//   110-120 ms   400
	//   120-130 ms   401  <- link restored
	//   130-140 ms   400
	//   140-150 ms   400
	//   150-160 ms   400
	//   160-170 ms   400
	//   170-180 ms   400
	//
	// offered 7200, delivered 6595, lost 605
	// probe interval 5 ms, K=3 misses
	// recovery (failure -> first packet via backup): 15.171 ms
	// bound (K x interval + probe RTT):              15.240 ms
	// path split at P: 4199 packets via primary SID, 2400 via backup segment list
}
