package main

// Example runs the scenario and pins what it prints, so go test checks
// the narrated output.
func Example() {
	main()
	// Output:
	// sent:     IPv6 2001:db8:1::1 -> fc00:10::42 hl=64 SRH[sl=1 path=fc00:10::42 2001:db8:2::1] UDP 1000->7777 len=18
	// received: IPv6 2001:db8:1::1 -> 2001:db8:2::1 hl=63 SRH[sl=0 path=fc00:10::42 2001:db8:2::1 tag=48879] UDP 1000->7777 len=18
	//
	// The router executed the verified eBPF function at the
	// segment fc00:10::42: it advanced the SRH and the program
	// stamped tag=0xbeef (48879) through the checked helper.
}
