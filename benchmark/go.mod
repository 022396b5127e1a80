module memento/benchmark

go 1.24

require memento v0.0.0

replace memento => ../
