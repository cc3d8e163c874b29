package dataset

// DrainDrawPool empties the draw-state pool g's views share and returns the
// permutations it held; released reports whether g itself holds no draw
// scratch. ok is false for groups that do not draw through drawCore.
func DrainDrawPool(g Group) (perms [][]int32, released, ok bool) {
	bd, ok := g.(blockDrawer)
	if !ok {
		return nil, false, false
	}
	c := bd.core()
	for {
		sc, _ := c.pool.Get().(*drawScratch)
		if sc == nil {
			return perms, c.sc == nil && c.next == 0, true
		}
		if sc.perm != nil {
			perms = append(perms, sc.perm)
		}
	}
}
