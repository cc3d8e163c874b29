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
	c.pool.mu.Lock()
	defer c.pool.mu.Unlock()
	for _, sc := range c.pool.free {
		if sc.perm != nil {
			perms = append(perms, sc.perm)
		}
	}
	c.pool.free = nil
	return perms, c.sc == nil && c.next == 0, true
}
