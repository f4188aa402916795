module srlb/bench

go 1.24

require srlb v0.0.0

replace srlb => ../
