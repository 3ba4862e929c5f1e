module kcore/bench

go 1.24

require kcore v0.0.0

replace kcore => ../
