#include "query/cq.h"

#include <cctype>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace anyk {

size_t ConjunctiveQuery::AddAtom(const std::string& relation,
                                 const std::vector<std::string>& vars) {
  // Zero-arity atoms are allowed: a nullary relation acts as a propositional
  // fact with multiplicity (cross product with its rows; false when empty).
  atoms_.push_back(Atom{relation, vars});
  std::vector<uint32_t> ids;
  ids.reserve(vars.size());
  for (const auto& v : vars) ids.push_back(InternVar(v));
  atom_var_ids_.push_back(std::move(ids));
  return atoms_.size() - 1;
}

void ConjunctiveQuery::SetFreeVars(const std::vector<std::string>& names) {
  free_vars_.clear();
  for (const auto& name : names) {
    int64_t id = FindVar(name);
    ANYK_CHECK(id >= 0) << "free variable " << name << " not used in any atom";
    free_vars_.push_back(static_cast<uint32_t>(id));
  }
  if (free_vars_.size() == NumVars()) free_vars_.clear();  // full after all
}

int64_t ConjunctiveQuery::FindVar(const std::string& name) const {
  auto it = var_ids_.find(name);
  return it == var_ids_.end() ? -1 : static_cast<int64_t>(it->second);
}

uint32_t ConjunctiveQuery::InternVar(const std::string& name) {
  auto [it, inserted] =
      var_ids_.try_emplace(name, static_cast<uint32_t>(var_names_.size()));
  if (inserted) var_names_.push_back(name);
  return it->second;
}

std::string ConjunctiveQuery::ToString() const {
  std::ostringstream out;
  out << "Q(";
  if (IsFull()) {
    for (size_t i = 0; i < var_names_.size(); ++i) {
      if (i) out << ",";
      out << var_names_[i];
    }
  } else {
    for (size_t i = 0; i < free_vars_.size(); ++i) {
      if (i) out << ",";
      out << var_names_[free_vars_[i]];
    }
  }
  out << ") :- ";
  for (size_t i = 0; i < atoms_.size(); ++i) {
    if (i) out << ", ";
    out << atoms_[i].relation << "(";
    for (size_t j = 0; j < atoms_[i].vars.size(); ++j) {
      if (j) out << ",";
      out << atoms_[i].vars[j];
    }
    out << ")";
  }
  return out.str();
}

namespace {
std::string RelName(const std::string& prefix, size_t i, bool single) {
  return single ? prefix : prefix + std::to_string(i + 1);
}
// `prefix` followed by the decimal `n`. Appending to a named string (not
// `prefix + std::to_string(n)`) keeps GCC 12's -O3 -Wrestrict false positive
// on operator+(const char*, string&&) out of Release builds.
std::string NumberedName(const char* prefix, size_t n) {
  std::string name = prefix;
  name += std::to_string(n);
  return name;
}
std::string MakeVarName(size_t i) { return NumberedName("x", i + 1); }
}  // namespace

ConjunctiveQuery ConjunctiveQuery::Path(size_t l, const std::string& prefix,
                                        bool single_relation) {
  ANYK_CHECK_GE(l, 1u);
  ConjunctiveQuery q;
  for (size_t i = 0; i < l; ++i) {
    q.AddAtom(RelName(prefix, i, single_relation), {MakeVarName(i), MakeVarName(i + 1)});
  }
  return q;
}

ConjunctiveQuery ConjunctiveQuery::Star(size_t l, const std::string& prefix,
                                        bool single_relation) {
  ANYK_CHECK_GE(l, 1u);
  ConjunctiveQuery q;
  for (size_t i = 0; i < l; ++i) {
    q.AddAtom(RelName(prefix, i, single_relation), {MakeVarName(0), MakeVarName(i + 1)});
  }
  return q;
}

ConjunctiveQuery ConjunctiveQuery::Cycle(size_t l, const std::string& prefix,
                                         bool single_relation) {
  ANYK_CHECK_GE(l, 2u);
  ConjunctiveQuery q;
  for (size_t i = 0; i < l; ++i) {
    q.AddAtom(RelName(prefix, i, single_relation),
              {MakeVarName(i), MakeVarName((i + 1) % l)});
  }
  return q;
}

ConjunctiveQuery ConjunctiveQuery::Product(size_t l, const std::string& prefix,
                                           bool single_relation) {
  ANYK_CHECK_GE(l, 1u);
  ConjunctiveQuery q;
  for (size_t i = 0; i < l; ++i) {
    q.AddAtom(RelName(prefix, i, single_relation),
              {NumberedName("a", i + 1), NumberedName("b", i + 1)});
  }
  return q;
}

namespace {

// Minimal recursive-descent tokenizer for "Head(a,b) :- R(a,c), S(c,b)".
struct Parser {
  const std::string& text;
  size_t pos = 0;

  void SkipSpace() {
    while (pos < text.size() && std::isspace(static_cast<unsigned char>(text[pos]))) ++pos;
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  void Expect(char c) {
    ANYK_CHECK(Consume(c)) << "parse error: expected '" << c << "' at offset "
                           << pos << " in: " << text;
  }

  std::string Identifier() {
    SkipSpace();
    size_t start = pos;
    while (pos < text.size() &&
           (std::isalnum(static_cast<unsigned char>(text[pos])) ||
            text[pos] == '_' || text[pos] == '*')) {
      ++pos;
    }
    ANYK_CHECK_GT(pos, start) << "parse error: identifier expected at offset "
                              << pos << " in: " << text;
    return text.substr(start, pos - start);
  }

  // Name(v1, v2, ...)
  std::pair<std::string, std::vector<std::string>> AtomExpr() {
    std::string name = Identifier();
    Expect('(');
    std::vector<std::string> vars;
    if (!Consume(')')) {
      vars.push_back(Identifier());
      while (Consume(',')) vars.push_back(Identifier());
      Expect(')');
    }
    return {name, vars};
  }
};

}  // namespace

ConjunctiveQuery ConjunctiveQuery::Parse(const std::string& text) {
  Parser p{text};
  auto [head_name, head_vars] = p.AtomExpr();
  (void)head_name;
  p.SkipSpace();
  ANYK_CHECK(p.Consume(':')) << "parse error: expected ':-' in: " << text;
  p.Expect('-');
  ConjunctiveQuery q;
  auto [rel, vars] = p.AtomExpr();
  q.AddAtom(rel, vars);
  while (p.Consume(',')) {
    auto [rel2, vars2] = p.AtomExpr();
    q.AddAtom(rel2, vars2);
  }
  p.SkipSpace();
  ANYK_CHECK_EQ(p.pos, text.size()) << "trailing input in: " << text;
  bool full = head_vars.size() == 1 && head_vars[0] == "*";
  if (!full) q.SetFreeVars(head_vars);
  return q;
}

}  // namespace anyk
