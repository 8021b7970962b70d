module multiclock/benchmarks

go 1.22

require multiclock v0.0.0

replace multiclock => ../
