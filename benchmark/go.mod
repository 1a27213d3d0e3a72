module rpai/benchmark

go 1.22

require rpai v0.0.0

replace rpai => ../
