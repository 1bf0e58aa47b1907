module srv6bpf/benchmark

go 1.22

require srv6bpf v0.0.0

replace srv6bpf => ../
