// Package index provides the spatial indices the building model uses: a
// static R-tree packed by STR bulk loading, and a uniform grid index. The
// paper stores indoor entities in featured spatial indices to support indoor
// distance computations and device-in-range lookups; here topo's
// partition-at-a-point lookup and the index ablation use them.
package index

import (
	"fmt"
	"math"
	"sort"

	"vita/internal/geom"
)

const maxEntries = 8

// Item is anything indexable by a bounding box.
type Item interface {
	Bounds() geom.BBox
}

// RTree is a static R-tree over Items, built once by BulkLoad.
type RTree struct {
	root *rnode
	size int
}

type rnode struct {
	leaf     bool
	bounds   geom.BBox
	children []*rnode // internal nodes
	items    []Item   // leaves
}

// Len returns the number of items in the tree.
func (t *RTree) Len() int { return t.size }

// Bounds returns the bounding box of all items.
func (t *RTree) Bounds() geom.BBox { return t.root.bounds }

func (t *RTree) refreshBounds(n *rnode) geom.BBox {
	if n.leaf {
		b := geom.EmptyBBox()
		for _, it := range n.items {
			b = b.Union(it.Bounds())
		}
		n.bounds = b
		return b
	}
	b := geom.EmptyBBox()
	for _, c := range n.children {
		b = b.Union(t.refreshBounds(c))
	}
	n.bounds = b
	return b
}

// Search appends to dst every item whose bounds intersect query and returns
// the extended slice.
func (t *RTree) Search(query geom.BBox, dst []Item) []Item {
	return searchNode(t.root, query, dst)
}

func searchNode(n *rnode, q geom.BBox, dst []Item) []Item {
	if !n.bounds.Intersects(q) {
		return dst
	}
	if n.leaf {
		for _, it := range n.items {
			if it.Bounds().Intersects(q) {
				dst = append(dst, it)
			}
		}
		return dst
	}
	for _, c := range n.children {
		dst = searchNode(c, q, dst)
	}
	return dst
}

// SearchPoint returns every item whose bounds contain p.
func (t *RTree) SearchPoint(p geom.Point, dst []Item) []Item {
	return t.Search(geom.BBox{Min: p, Max: p}, dst)
}

// BulkLoad builds an R-tree from items using Sort-Tile-Recursive packing.
func BulkLoad(items []Item) *RTree {
	t := &RTree{root: &rnode{leaf: true, bounds: geom.EmptyBBox()}}
	if len(items) == 0 {
		return t
	}
	leaves := strPack(items)
	nodes := leaves
	for len(nodes) > 1 {
		nodes = strPackNodes(nodes)
	}
	t.root = nodes[0]
	t.size = len(items)
	t.refreshBounds(t.root)
	return t
}

func strPack(items []Item) []*rnode {
	sorted := make([]Item, len(items))
	copy(sorted, items)
	sort.Slice(sorted, func(i, j int) bool {
		return sorted[i].Bounds().Center().X < sorted[j].Bounds().Center().X
	})
	nLeaves := (len(sorted) + maxEntries - 1) / maxEntries
	sliceCount := int(math.Ceil(math.Sqrt(float64(nLeaves))))
	sliceSize := sliceCount * maxEntries
	var leaves []*rnode
	for i := 0; i < len(sorted); i += sliceSize {
		end := i + sliceSize
		if end > len(sorted) {
			end = len(sorted)
		}
		slice := sorted[i:end]
		sort.Slice(slice, func(a, b int) bool {
			return slice[a].Bounds().Center().Y < slice[b].Bounds().Center().Y
		})
		for j := 0; j < len(slice); j += maxEntries {
			e := j + maxEntries
			if e > len(slice) {
				e = len(slice)
			}
			leaf := &rnode{leaf: true, bounds: geom.EmptyBBox()}
			for _, it := range slice[j:e] {
				leaf.items = append(leaf.items, it)
				leaf.bounds = leaf.bounds.Union(it.Bounds())
			}
			leaves = append(leaves, leaf)
		}
	}
	return leaves
}

func strPackNodes(nodes []*rnode) []*rnode {
	sort.Slice(nodes, func(i, j int) bool {
		return nodes[i].bounds.Center().X < nodes[j].bounds.Center().X
	})
	nParents := (len(nodes) + maxEntries - 1) / maxEntries
	sliceCount := int(math.Ceil(math.Sqrt(float64(nParents))))
	sliceSize := sliceCount * maxEntries
	var parents []*rnode
	for i := 0; i < len(nodes); i += sliceSize {
		end := i + sliceSize
		if end > len(nodes) {
			end = len(nodes)
		}
		slice := nodes[i:end]
		sort.Slice(slice, func(a, b int) bool {
			return slice[a].bounds.Center().Y < slice[b].bounds.Center().Y
		})
		for j := 0; j < len(slice); j += maxEntries {
			e := j + maxEntries
			if e > len(slice) {
				e = len(slice)
			}
			p := &rnode{bounds: geom.EmptyBBox()}
			for _, c := range slice[j:e] {
				p.children = append(p.children, c)
				p.bounds = p.bounds.Union(c.bounds)
			}
			parents = append(parents, p)
		}
	}
	return parents
}

// Validate checks structural invariants (child bounds contained in parent,
// entry counts within limits) and returns the first violation.
func (t *RTree) Validate() error {
	return validateNode(t.root, true)
}

func validateNode(n *rnode, isRoot bool) error {
	if n.leaf {
		if !isRoot && len(n.items) > maxEntries {
			return fmt.Errorf("index: leaf overflow: %d items", len(n.items))
		}
		for _, it := range n.items {
			if !n.bounds.ContainsBBox(it.Bounds()) {
				return fmt.Errorf("index: item bounds escape leaf bounds")
			}
		}
		return nil
	}
	if len(n.children) == 0 {
		return fmt.Errorf("index: internal node with no children")
	}
	if len(n.children) > maxEntries {
		return fmt.Errorf("index: internal overflow: %d children", len(n.children))
	}
	for _, c := range n.children {
		if !n.bounds.ContainsBBox(c.bounds) {
			return fmt.Errorf("index: child bounds escape parent bounds")
		}
		if err := validateNode(c, false); err != nil {
			return err
		}
	}
	return nil
}
