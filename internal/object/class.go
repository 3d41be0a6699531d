package object

import "fmt"

// Attr describes one attribute of a class.
type Attr struct {
	Name string
	Kind Kind
	// StrLen is the inline width of a KindString attribute; ignored for
	// other kinds. The Derby schema uses 16 everywhere.
	StrLen int
}

// size returns the encoded width of the attribute.
func (a Attr) size() int {
	switch a.Kind {
	case KindInt:
		return 4
	case KindChar:
		return 1
	case KindString:
		return a.StrLen
	case KindRef, KindSet:
		return 8
	default:
		panic(fmt.Sprintf("object: unknown kind %v", a.Kind))
	}
}

// Class is an object type: a named, ordered list of attributes with a
// computed fixed layout (Derby objects are fixed-size tuples; variable
// parts — large sets — are out-of-line).
type Class struct {
	ID    uint16
	Name  string
	Attrs []Attr

	offsets []int // attribute offsets relative to the end of the header
	width   int   // total attribute bytes
	byName  map[string]int

	// Evolution state: epochAttrs[e] is the attribute count at epoch e
	// (nil until the first AddAttr); defaults holds one default per
	// attribute added by evolution.
	epochAttrs []int
	defaults   []Value

	// Inheritance: the direct superclass and known subclasses.
	parent     *Class
	subclasses []*Class
}

// NewClass builds a class with the given attributes. IDs are assigned by
// the Registry.
func NewClass(name string, attrs []Attr) *Class {
	c := &Class{Name: name, Attrs: attrs, byName: make(map[string]int, len(attrs))}
	off := 0
	for i, a := range attrs {
		if _, dup := c.byName[a.Name]; dup {
			panic(fmt.Sprintf("object: class %s has duplicate attribute %q", name, a.Name))
		}
		c.byName[a.Name] = i
		c.offsets = append(c.offsets, off)
		off += a.size()
	}
	c.width = off
	return c
}

// AttrIndex returns the position of the named attribute, or -1.
func (c *Class) AttrIndex(name string) int {
	if i, ok := c.byName[name]; ok {
		return i
	}
	return -1
}

// Width returns the fixed attribute-data width in bytes (header excluded).
func (c *Class) Width() int { return c.width }

// Registry maps class IDs to classes for record decoding.
type Registry struct {
	// byID is indexed by class ID; nil where no class has that ID. Register
	// hands out 1, 2, 3…, so the slice is dense, and decoding a record's
	// class — once per scanned or fetched object — is an index, not a hash.
	byID   []*Class
	byName map[string]*Class
	nextID uint16
}

// NewRegistry returns an empty class registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*Class), nextID: 1}
}

// setID records c under c.ID, growing the table to reach it.
func (r *Registry) setID(c *Class) {
	if n := int(c.ID) + 1; n > len(r.byID) {
		r.byID = append(r.byID, make([]*Class, n-len(r.byID))...)
	}
	r.byID[c.ID] = c
}

// Register assigns an ID to the class and records it. Registering two
// classes with one name fails.
func (r *Registry) Register(c *Class) error {
	if _, ok := r.byName[c.Name]; ok {
		return fmt.Errorf("object: class %q already registered", c.Name)
	}
	c.ID = r.nextID
	r.nextID++
	r.setID(c)
	r.byName[c.Name] = c
	return nil
}

// ByID returns the class with the given ID, or nil.
func (r *Registry) ByID(id uint16) *Class {
	if int(id) < len(r.byID) {
		return r.byID[id]
	}
	return nil
}

// ByName returns the class with the given name, or nil.
func (r *Registry) ByName(name string) *Class { return r.byName[name] }

// Clone deep-copies the registry and its whole class graph (inheritance
// links included) for a mutable forked session, which may evolve classes in
// place. It returns the copy and a remap function translating any class
// pointer from the original graph to its clone (nil maps to nil). IDs,
// layouts and the next-ID counter are preserved exactly.
func (r *Registry) Clone() (*Registry, func(*Class) *Class) {
	memo := make(map[*Class]*Class, len(r.byName))
	var cloneClass func(c *Class) *Class
	cloneClass = func(c *Class) *Class {
		if c == nil {
			return nil
		}
		if cc, ok := memo[c]; ok {
			return cc
		}
		cc := &Class{
			ID:     c.ID,
			Name:   c.Name,
			Attrs:  append([]Attr(nil), c.Attrs...),
			width:  c.width,
			byName: make(map[string]int, len(c.byName)),
		}
		// Insert before recursing: parent and subclasses form cycles.
		memo[c] = cc
		cc.offsets = append([]int(nil), c.offsets...)
		for k, v := range c.byName {
			cc.byName[k] = v
		}
		cc.epochAttrs = append([]int(nil), c.epochAttrs...)
		cc.defaults = append([]Value(nil), c.defaults...)
		cc.parent = cloneClass(c.parent)
		for _, sub := range c.subclasses {
			cc.subclasses = append(cc.subclasses, cloneClass(sub))
		}
		return cc
	}
	nr := &Registry{
		byID:   make([]*Class, len(r.byID)),
		byName: make(map[string]*Class, len(r.byName)),
		nextID: r.nextID,
	}
	for id, c := range r.byID {
		nr.byID[id] = cloneClass(c)
	}
	for name, c := range r.byName {
		nr.byName[name] = cloneClass(c)
	}
	return nr, func(c *Class) *Class {
		if c == nil {
			return nil
		}
		return cloneClass(c)
	}
}
