package ot

import (
	"errors"
	"fmt"
	"math"
)

// Simplex solves the discrete Kantorovich problem (Eq. 5 of the paper)
//
//	min_π Σ_ij c_ij π_ij   s.t.  Σ_j π_ij = a_i,  Σ_i π_ij = b_j,  π ≥ 0
//
// exactly, for an arbitrary cost matrix, with the transportation network
// simplex (MODI / u-v method). The 1-D monotone solver is preferred when the
// cost is convex in |x−y|; Simplex is the general-purpose oracle used to
// validate it and to support non-convex ablation costs.
//
// Degeneracy is broken with a deterministic lexicographic-style mass
// perturbation of relative size ~1e-12, so returned marginals match the
// inputs to within that perturbation.
func Simplex(a, b []float64, cost *CostMatrix) (*Plan, error) {
	n, m := cost.Dims()
	if len(a) != n || len(b) != m {
		return nil, fmt.Errorf("ot: marginals %d/%d do not match cost %d×%d", len(a), len(b), n, m)
	}
	aw, bw, err := normalizeMarginals(a, b)
	if err != nil {
		return nil, err
	}
	// Work on the strictly positive sub-problem: drop zero-mass states, then
	// map plan atoms back to original indices. The compacted copies are
	// perturbed in place below.
	rowIdx, aw := compactPositive(aw)
	colIdx, bw := compactPositive(bw)
	nn, mm := len(rowIdx), len(colIdx)

	// Lexicographic perturbation: distinct increments per row, balanced on
	// the last column, prevents ties in every min-ratio comparison.
	const delta = 1e-12
	pert := 0.0
	for i := range aw {
		d := delta * float64(i+1)
		aw[i] += d
		pert += d
	}
	bw[mm-1] += pert

	s := &simplexState{
		n: nn, m: mm,
		rowIdx: rowIdx, colIdx: colIdx,
		cost: cost,
	}
	if err := s.northWestInit(aw, bw); err != nil {
		return nil, err
	}
	if err := s.optimize(); err != nil {
		return nil, err
	}
	entries := make([]Entry, 0, len(s.edges))
	for _, e := range s.edges {
		if e.mass <= 0 {
			continue
		}
		entries = append(entries, Entry{I: rowIdx[e.row], J: colIdx[e.col], Mass: e.mass})
	}
	return NewPlan(n, m, entries)
}

type spxEdge struct {
	row, col int
	mass     float64
	alive    bool
}

type simplexState struct {
	n, m           int
	rowIdx, colIdx []int
	cost           *CostMatrix
	edges          []spxEdge
	// adj[node] lists edge ids incident to the node; node 0..n-1 are rows,
	// n..n+m-1 are columns. Dead edge ids are skipped during traversal and
	// compacted opportunistically.
	adj [][]int
}

func (s *simplexState) c(i, j int) float64 {
	return s.cost.At(s.rowIdx[i], s.colIdx[j])
}

func (s *simplexState) addEdge(i, j int, mass float64) int {
	id := len(s.edges)
	s.edges = append(s.edges, spxEdge{row: i, col: j, mass: mass, alive: true})
	s.adj[i] = append(s.adj[i], id)
	s.adj[s.n+j] = append(s.adj[s.n+j], id)
	return id
}

func (s *simplexState) removeEdge(id int) {
	e := &s.edges[id]
	e.alive = false
	s.compactAdj(e.row)
	s.compactAdj(s.n + e.col)
}

func (s *simplexState) compactAdj(node int) {
	lst := s.adj[node]
	out := lst[:0]
	for _, id := range lst {
		if s.edges[id].alive {
			out = append(out, id)
		}
	}
	s.adj[node] = out
}

// northWestInit builds the initial basic feasible solution with the
// north-west corner rule; with perturbed masses it yields exactly
// n+m−1 basic edges.
func (s *simplexState) northWestInit(a, b []float64) error {
	s.adj = make([][]int, s.n+s.m)
	ra := append([]float64(nil), a...)
	rb := append([]float64(nil), b...)
	i, j := 0, 0
	for i < s.n && j < s.m {
		mass := ra[i]
		if rb[j] < mass {
			mass = rb[j]
		}
		s.addEdge(i, j, mass)
		ra[i] -= mass
		rb[j] -= mass
		switch {
		case i == s.n-1 && j == s.m-1:
			i++
			j++
		case j == s.m-1:
			i++ // remaining mass must flow down the last column
		case i == s.n-1:
			j++ // remaining mass must flow along the last row
		case ra[i] <= rb[j]:
			i++
		default:
			j++
		}
	}
	if got, want := len(s.edges), s.n+s.m-1; got != want {
		return fmt.Errorf("ot: degenerate initial basis (%d edges, want %d)", got, want)
	}
	return nil
}

// duals solves u_i + v_j = c_ij over the basis tree (u[0] = 0).
func (s *simplexState) duals(u, v []float64) {
	seen := make([]bool, s.n+s.m)
	stack := []int{0}
	u[0] = 0
	seen[0] = true
	for len(stack) > 0 {
		node := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, id := range s.adj[node] {
			e := &s.edges[id]
			if !e.alive {
				continue
			}
			var next int
			if node < s.n { // row -> col
				next = s.n + e.col
				if !seen[next] {
					v[e.col] = s.c(e.row, e.col) - u[e.row]
				}
			} else { // col -> row
				next = e.row
				if !seen[next] {
					u[e.row] = s.c(e.row, e.col) - v[e.col]
				}
			}
			if !seen[next] {
				seen[next] = true
				stack = append(stack, next)
			}
		}
	}
}

// treePath returns the edge ids of the unique basis-tree path from node
// src to node dst (nodes in the row/col numbering described on adj).
func (s *simplexState) treePath(src, dst int) []int {
	parentEdge := make([]int, s.n+s.m)
	parentNode := make([]int, s.n+s.m)
	for i := range parentEdge {
		parentEdge[i] = -1
		parentNode[i] = -1
	}
	parentNode[src] = src
	queue := []int{src}
	for len(queue) > 0 && parentNode[dst] == -1 {
		node := queue[0]
		queue = queue[1:]
		for _, id := range s.adj[node] {
			e := &s.edges[id]
			if !e.alive {
				continue
			}
			var next int
			if node < s.n {
				next = s.n + e.col
			} else {
				next = e.row
			}
			if parentNode[next] != -1 {
				continue
			}
			parentNode[next] = node
			parentEdge[next] = id
			queue = append(queue, next)
		}
	}
	if parentNode[dst] == -1 {
		return nil // disconnected basis: impossible for a spanning tree
	}
	var path []int
	for node := dst; node != src; node = parentNode[node] {
		path = append(path, parentEdge[node])
	}
	return path
}

func (s *simplexState) optimize() error {
	u := make([]float64, s.n)
	v := make([]float64, s.m)
	tol := 1e-10 * (1 + s.cost.Max())
	maxPivots := 200 * (s.n + s.m) * (s.n + s.m)
	if maxPivots < 10000 {
		maxPivots = 10000
	}
	for pivot := 0; ; pivot++ {
		if pivot > maxPivots {
			return fmt.Errorf("ot: simplex exceeded %d pivots (possible cycling)", maxPivots)
		}
		s.duals(u, v)
		// Dantzig rule: most negative reduced cost.
		bestI, bestJ := -1, -1
		bestRed := -tol
		for i := 0; i < s.n; i++ {
			ui := u[i]
			for j := 0; j < s.m; j++ {
				red := s.c(i, j) - ui - v[j]
				if red < bestRed {
					bestRed = red
					bestI, bestJ = i, j
				}
			}
		}
		if bestI < 0 {
			return nil // optimal
		}
		// Cycle: entering edge (bestI, bestJ) plus tree path col->row.
		path := s.treePath(s.n+bestJ, bestI)
		if path == nil {
			return errors.New("ot: basis tree disconnected")
		}
		// Signs alternate along the path starting with − on the edge
		// incident to the entering column.
		theta := math.Inf(1)
		leaving := -1
		for k, id := range path {
			if k%2 == 0 { // − edge
				if s.edges[id].mass < theta {
					theta = s.edges[id].mass
					leaving = id
				}
			}
		}
		if leaving < 0 {
			return errors.New("ot: no leaving edge found")
		}
		for k, id := range path {
			if k%2 == 0 {
				s.edges[id].mass -= theta
			} else {
				s.edges[id].mass += theta
			}
		}
		s.removeEdge(leaving)
		s.addEdge(bestI, bestJ, theta)
	}
}
