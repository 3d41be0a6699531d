module treebench/bench

go 1.22

require treebench v0.0.0

replace treebench => ../
