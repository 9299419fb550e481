// The benchmark is a module of its own so that it builds from its own
// directory; the plinius/ prefix keeps plinius/internal/... importable.
module plinius/benchmark

go 1.22

require plinius v0.0.0

replace plinius => ../
