package main

import q "fixture/internal/p"

func main() { q.Aliased() }
