module modelardb/benchmark

go 1.24

require modelardb v0.0.0

replace modelardb => ../
