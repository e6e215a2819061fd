module bpms/benchmark

go 1.23

require bpms v0.0.0

replace bpms => ../
