module cepshed/bench

go 1.22

require cepshed v0.0.0

replace cepshed => ../
