//go:build invariants

package core

import (
	"strings"
	"testing"
)

// Under -tags invariants, commitCheck accepts the tree the m-router
// actually committed and panics when that same tree is checked against
// any other home: a tree rooted anywhere but the active m-router is a
// protocol bug.
func TestCommitCheckRejectsWrongRoot(t *testing.T) {
	n, s := newNet(railGraph(), Config{MRouter: 0})
	n.HostJoin(4, grp)
	n.Run()
	tree := s.GroupTree(grp)
	if tree == nil || tree.MemberCount() != 1 {
		t.Fatal("join did not commit a tree")
	}
	commitCheck(s.home(grp), tree) // the committed tree passes

	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "committed tree rooted at 0, want m-router home 1") {
			t.Fatalf("commitCheck against the wrong home: recovered %q, want a wrong-root panic", msg)
		}
	}()
	commitCheck(s.home(grp)+1, tree)
}
