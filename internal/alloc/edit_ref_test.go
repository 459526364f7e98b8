package alloc

// AlignByMap is the derived edit and alignment's reference, from a plain
// map of standing IDs: src[i] is the standing position of input i's ID, or
// -1. ed lists every survivor as retabled, and is nil unless the matched
// inputs come first with their positions ascending.
func AlignByMap(was []Allocation, apps []AppInput) (ed *Edit, src []int32) {
	at := make(map[string]int32, len(was))
	for p := range was {
		at[was[p].ID] = int32(p)
	}
	src = make([]int32, len(apps))
	kept := 0
	for i := range apps {
		src[i] = -1
		if p, ok := at[apps[i].ID]; ok {
			src[i], kept = p, kept+1
			delete(at, apps[i].ID)
		}
	}
	ed = &Edit{Base: len(was)}
	for i := range kept {
		if src[i] < 0 || (i > 0 && src[i] < src[i-1]) {
			return nil, src
		}
		ed.Retabled = append(ed.Retabled, i)
	}
	for p := range was {
		if _, unmatched := at[was[p].ID]; unmatched {
			ed.Gone = append(ed.Gone, p)
		}
	}
	return ed, src
}

// DerivedAlignment is the edit and alignment AllocateWithStats gives apps,
// as scratch valid until the allocator's next solve.
func (a *Allocator) DerivedAlignment(apps []AppInput) (*Edit, []int32) {
	ed := a.deriveEdit(apps)
	return ed, a.alignEdit(apps, ed)
}
