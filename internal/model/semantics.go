package model

import "strings"

// SemanticRule maps entity attributes to a partition kind. Vita "supports
// semantic extraction by defining empirical rules" (paper §4.1): a canteen is
// identified when the entity name contains "canteen" or "dining room"; a
// public area is recognized from its door connectivity and floorage.
type SemanticRule struct {
	// Name identifies the rule in diagnostics.
	Name string
	// Apply inspects the partition in the context of its floor and returns
	// the kind to assign and whether the rule fired.
	Apply func(p *Partition, f *Floor) (PartitionKind, bool)
}

// The public-area rule's thresholds ("door connectivity and floorage"): at
// least this many doors and this much floorage (m²).
const (
	minPublicDoors = 3
	minPublicArea  = 60
)

// DefaultSemanticRules returns the paper's example rules plus a hallway
// heuristic.
func DefaultSemanticRules() []SemanticRule {
	return []SemanticRule{
		{
			Name: "canteen-by-name",
			Apply: func(p *Partition, _ *Floor) (PartitionKind, bool) {
				n := strings.ToLower(p.Name)
				if strings.Contains(n, "canteen") || strings.Contains(n, "dining room") {
					return KindCanteen, true
				}
				return 0, false
			},
		},
		{
			Name: "hallway-by-name",
			Apply: func(p *Partition, _ *Floor) (PartitionKind, bool) {
				n := strings.ToLower(p.Name)
				if strings.Contains(n, "hallway") || strings.Contains(n, "corridor") {
					return KindHallway, true
				}
				return 0, false
			},
		},
		{
			Name: "public-area-by-connectivity-and-floorage",
			Apply: func(p *Partition, f *Floor) (PartitionKind, bool) {
				doors := 0
				for _, d := range f.Doors {
					if d.Partitions[0] == p.ID || d.Partitions[1] == p.ID {
						doors++
					}
				}
				if doors >= minPublicDoors && p.Polygon.Area() >= minPublicArea {
					return KindPublicArea, true
				}
				return 0, false
			},
		},
	}
}

// ApplySemantics runs the rules over every partition of the building in rule
// order; the first matching rule wins. Partitions already classified as
// staircases are left untouched. It returns how many partitions were
// (re)classified.
func ApplySemantics(b *Building, rules []SemanticRule) int {
	n := 0
	for _, f := range b.Floors {
		for _, p := range f.Partitions {
			if p.Kind == KindStaircase {
				continue
			}
			for _, r := range rules {
				if kind, ok := r.Apply(p, f); ok {
					if p.Kind != kind {
						p.Kind = kind
						n++
					}
					break
				}
			}
		}
	}
	return n
}
