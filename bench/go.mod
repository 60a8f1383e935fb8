module blmr/bench

go 1.24

require blmr v0.0.0

replace blmr => ../
