package main

// Example runs the scenario and pins what it prints, so go test checks
// the narrated output.
func Example() {
	main()
	// Output:
	// probing 1:100    100 reports; one-way delay n=100 mean=26635935.90ns p50=26577594.00ns p99=27924235.00ns (in ms: mean 26.64)
	// probing 1:10     1017 reports; one-way delay n=1017 mean=26538213.81ns p50=26488334.00ns p99=27943187.00ns (in ms: mean 26.54)
	//
	// The monitored link is shaped to 25 ms ± 1 ms one-way;
	// the BPF datapath measures it passively on live traffic.
}
