// The benchmark is a module of its own (the benchmark contract wants
// its build file inside bench/); the import path keeps the spash/
// prefix so spash/internal/... stays importable.
module spash/bench

go 1.23

require spash v0.0.0

replace spash => ../
