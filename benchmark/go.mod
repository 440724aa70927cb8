module remotedb/benchmark

go 1.22

require remotedb v0.0.0

replace remotedb => ../
