package main

import "fixture/internal/p"

func main() {
	_ = p.Live()
	new(p.T).LiveMethod()
}
