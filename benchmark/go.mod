module poi360/benchmark

go 1.22

require poi360 v0.0.0

replace poi360 => ../
