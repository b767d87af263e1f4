module govents/bench

go 1.24

require govents v0.0.0

replace govents => ../
