module flexran/bench

go 1.24

require flexran v0.0.0

replace flexran => ../
