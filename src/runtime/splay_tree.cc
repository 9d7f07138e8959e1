#include "src/runtime/splay_tree.h"

#include <vector>

namespace sva::runtime {

SplayTree::~SplayTree() { Clear(); }

void SplayTree::DeleteSubtree(Node* n) {
  // Iterative deletion to avoid deep recursion on adversarial shapes.
  std::vector<Node*> stack;
  if (n != nullptr) {
    stack.push_back(n);
  }
  while (!stack.empty()) {
    Node* cur = stack.back();
    stack.pop_back();
    if (cur->left != nullptr) {
      stack.push_back(cur->left);
    }
    if (cur->right != nullptr) {
      stack.push_back(cur->right);
    }
    delete cur;
  }
}

void SplayTree::Clear() {
  DeleteSubtree(root_);
  root_ = nullptr;
  size_ = 0;
}

int SplayTree::Compare(uint64_t addr, const ObjectRange& range) {
  ++comparisons_;
  if (addr < range.start) {
    return -1;
  }
  // Unsigned-safe containment: ranges abutting UINT64_MAX must not wrap.
  if (range.ContainsForLookup(addr)) {
    return 0;
  }
  return 1;
}

void SplayTree::Splay(uint64_t addr) {
  if (root_ == nullptr) {
    return;
  }
  Node header;
  Node* left_max = &header;
  Node* right_min = &header;
  Node* t = root_;
  while (true) {
    int cmp = Compare(addr, t->range);
    if (cmp < 0) {
      if (t->left == nullptr) {
        break;
      }
      if (Compare(addr, t->left->range) < 0) {
        // Rotate right.
        ++rotations_;
        Node* l = t->left;
        t->left = l->right;
        l->right = t;
        t = l;
        if (t->left == nullptr) {
          break;
        }
      }
      // Link right.
      right_min->left = t;
      right_min = t;
      t = t->left;
    } else if (cmp > 0) {
      if (t->right == nullptr) {
        break;
      }
      if (Compare(addr, t->right->range) > 0) {
        // Rotate left.
        ++rotations_;
        Node* r = t->right;
        t->right = r->left;
        r->left = t;
        t = r;
        if (t->right == nullptr) {
          break;
        }
      }
      // Link left.
      left_max->right = t;
      left_max = t;
      t = t->right;
    } else {
      break;
    }
  }
  // Assemble.
  left_max->right = t->left;
  right_min->left = t->right;
  t->left = header.right;
  t->right = header.left;
  root_ = t;
}

bool SplayTree::Insert(uint64_t start, uint64_t size) {
  // Inclusive last byte, saturated: a range whose end would pass the top of
  // the 64-bit address space is treated as ending at UINT64_MAX instead of
  // wrapping, which would defeat the successor overlap test below.
  uint64_t end = start;
  if (size != 0) {
    uint64_t len = size - 1;
    end = start > UINT64_MAX - len ? UINT64_MAX : start + len;
  }
  if (root_ != nullptr) {
    // The top-down splay terminates at the node containing `start` if one
    // exists, so this detects any range covering our first byte.
    Splay(start);
    if (Compare(start, root_->range) == 0) {
      return false;
    }
    // Otherwise the only possible overlap is a range beginning inside
    // [start, end]: find the successor (smallest range start >= start).
    uint64_t succ = 0;
    bool have_succ = false;
    if (root_->range.start >= start) {
      succ = root_->range.start;
      have_succ = true;
    } else if (root_->right != nullptr) {
      Node* n = root_->right;
      while (n->left != nullptr) {
        n = n->left;
      }
      succ = n->range.start;
      have_succ = true;
    }
    if (have_succ && succ <= end) {
      return false;
    }
  }
  Node* n = new Node;
  n->range = ObjectRange{start, size};
  if (root_ == nullptr) {
    root_ = n;
  } else {
    // root_ is now the nearest node to `end`; split around `start`.
    Splay(start);
    if (root_->range.start < start) {
      n->left = root_;
      n->right = root_->right;
      root_->right = nullptr;
    } else {
      n->right = root_;
      n->left = root_->left;
      root_->left = nullptr;
    }
    root_ = n;
  }
  ++size_;
  return true;
}

std::optional<ObjectRange> SplayTree::RemoveAt(uint64_t start) {
  if (root_ == nullptr) {
    return std::nullopt;
  }
  Splay(start);
  if (root_->range.start != start) {
    return std::nullopt;
  }
  ObjectRange removed = root_->range;
  Node* old = root_;
  if (root_->left == nullptr) {
    root_ = root_->right;
  } else {
    Node* right = root_->right;
    root_ = root_->left;
    Splay(start);  // Max of left subtree becomes root (no right child).
    root_->right = right;
  }
  delete old;
  --size_;
  return removed;
}

std::optional<ObjectRange> SplayTree::LookupContaining(uint64_t addr) {
  if (root_ == nullptr) {
    return std::nullopt;
  }
  Splay(addr);
  if (Compare(addr, root_->range) == 0) {
    return root_->range;
  }
  return std::nullopt;
}

std::optional<ObjectRange> SplayTree::LookupStart(uint64_t start) {
  if (root_ == nullptr) {
    return std::nullopt;
  }
  Splay(start);
  if (root_->range.start == start) {
    return root_->range;
  }
  return std::nullopt;
}

}  // namespace sva::runtime
