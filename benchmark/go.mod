module github.com/ddgms/ddgms/benchmark

go 1.22

require github.com/ddgms/ddgms v0.0.0

replace github.com/ddgms/ddgms => ../
