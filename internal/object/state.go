package object

import "fmt"

// Serializable class-graph state. Class IDs are baked into every record
// header on disk, so a restored Registry must reproduce IDs, layouts,
// inheritance links and evolution epochs exactly — a persisted snapshot's
// page image is only decodable through an identical catalog.

// ClassState is the serializable description of one class.
type ClassState struct {
	ID   uint16
	Name string
	// Parent names the direct superclass ("" for a root class).
	Parent string
	// Attrs is the full attribute list, inherited attributes included.
	Attrs []Attr
	// OrigAttrs is the attribute count at creation; attributes beyond it
	// were appended by AddAttr (one evolution epoch each), with matching
	// entries in Defaults.
	OrigAttrs int
	Defaults  []Value
}

// RegistryState is the serializable description of a Registry.
type RegistryState struct {
	NextID uint16
	// Classes is sorted by ID (the registration order).
	Classes []ClassState
}

// State exports the registry's whole class graph.
func (r *Registry) State() *RegistryState {
	st := &RegistryState{NextID: r.nextID}
	for _, c := range r.byID {
		if c == nil {
			continue
		}
		cs := ClassState{
			ID:        c.ID,
			Name:      c.Name,
			Attrs:     append([]Attr(nil), c.Attrs...),
			OrigAttrs: len(c.Attrs) - len(c.defaults),
			Defaults:  append([]Value(nil), c.defaults...),
		}
		if c.parent != nil {
			cs.Parent = c.parent.Name
		}
		st.Classes = append(st.Classes, cs)
	}
	return st
}

// validKind reports whether k is a known attribute kind (a corrupt state
// must not reach Attr.size, which panics on unknown kinds).
func validKind(k Kind) bool { return k <= KindSet }

// maxAttrWidth bounds one attribute's inline width when restoring a class
// from untrusted state: no record fits a 4 KB page anyway.
const maxAttrWidth = 4096

// validate rejects a ClassState that NewClass or AddAttr would panic on or
// silently mis-layout.
func (cs *ClassState) validate() error {
	if cs.Name == "" {
		return fmt.Errorf("object: class %d has no name", cs.ID)
	}
	if cs.OrigAttrs < 0 || cs.OrigAttrs > len(cs.Attrs) {
		return fmt.Errorf("object: class %s: original attribute count %d out of range (%d attrs)",
			cs.Name, cs.OrigAttrs, len(cs.Attrs))
	}
	if len(cs.Defaults) != len(cs.Attrs)-cs.OrigAttrs {
		return fmt.Errorf("object: class %s: %d defaults for %d evolved attributes",
			cs.Name, len(cs.Defaults), len(cs.Attrs)-cs.OrigAttrs)
	}
	seen := make(map[string]bool, len(cs.Attrs))
	for _, a := range cs.Attrs {
		if a.Name == "" {
			return fmt.Errorf("object: class %s has an unnamed attribute", cs.Name)
		}
		if seen[a.Name] {
			return fmt.Errorf("object: class %s has duplicate attribute %q", cs.Name, a.Name)
		}
		seen[a.Name] = true
		if !validKind(a.Kind) {
			return fmt.Errorf("object: class %s: attribute %s has unknown kind %d", cs.Name, a.Name, a.Kind)
		}
		if a.Kind == KindString && (a.StrLen < 0 || a.StrLen > maxAttrWidth) {
			return fmt.Errorf("object: class %s: attribute %s string width %d out of range", cs.Name, a.Name, a.StrLen)
		}
	}
	return nil
}

// RestoreRegistry rebuilds a registry from its exported state, reproducing
// IDs, layouts, inheritance and evolution epochs exactly. The state is
// validated, not trusted: dangling parents, duplicate ids or names, and
// malformed attribute lists fail with an error, never a panic.
func RestoreRegistry(st *RegistryState) (*Registry, error) {
	r := &Registry{
		byName: make(map[string]*Class, len(st.Classes)),
		nextID: st.NextID,
	}
	byName := make(map[string]*ClassState, len(st.Classes))
	for i := range st.Classes {
		cs := &st.Classes[i]
		if err := cs.validate(); err != nil {
			return nil, err
		}
		if _, dup := byName[cs.Name]; dup {
			return nil, fmt.Errorf("object: duplicate class %q in state", cs.Name)
		}
		byName[cs.Name] = cs
	}

	// Build parents before children (a subclass's layout extends its
	// parent's). The visited set breaks parent cycles in corrupt input.
	building := make(map[string]bool)
	var build func(cs *ClassState) (*Class, error)
	build = func(cs *ClassState) (*Class, error) {
		if c := r.byName[cs.Name]; c != nil {
			return c, nil
		}
		if building[cs.Name] {
			return nil, fmt.Errorf("object: class %s is its own ancestor", cs.Name)
		}
		building[cs.Name] = true
		defer delete(building, cs.Name)

		var c *Class
		if cs.Parent == "" {
			c = NewClass(cs.Name, append([]Attr(nil), cs.Attrs[:cs.OrigAttrs]...))
		} else {
			ps, ok := byName[cs.Parent]
			if !ok {
				return nil, fmt.Errorf("object: class %s derives from unknown class %q", cs.Name, cs.Parent)
			}
			parent, err := build(ps)
			if err != nil {
				return nil, err
			}
			if cs.OrigAttrs < len(parent.Attrs) {
				return nil, fmt.Errorf("object: subclass %s has %d attributes, fewer than parent %s's %d",
					cs.Name, cs.OrigAttrs, parent.Name, len(parent.Attrs))
			}
			for i, a := range cs.Attrs[:len(parent.Attrs)] {
				if a != parent.Attrs[i] {
					return nil, fmt.Errorf("object: subclass %s does not extend parent %s's layout", cs.Name, parent.Name)
				}
			}
			var err2 error
			c, err2 = NewSubclass(cs.Name, parent, append([]Attr(nil), cs.Attrs[len(parent.Attrs):cs.OrigAttrs]...))
			if err2 != nil {
				return nil, err2
			}
		}
		// Replay evolution: each appended attribute is one epoch.
		for i := cs.OrigAttrs; i < len(cs.Attrs); i++ {
			if err := c.AddAttr(cs.Attrs[i], cs.Defaults[i-cs.OrigAttrs]); err != nil {
				return nil, err
			}
		}
		if r.ByID(cs.ID) != nil {
			return nil, fmt.Errorf("object: duplicate class id %d in state", cs.ID)
		}
		c.ID = cs.ID
		r.setID(c)
		r.byName[c.Name] = c
		return c, nil
	}
	for i := range st.Classes {
		if _, err := build(&st.Classes[i]); err != nil {
			return nil, err
		}
	}
	return r, nil
}
