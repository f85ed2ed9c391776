#include "market/categories.hpp"

#include <algorithm>
#include <numeric>

#include "util/expect.hpp"

namespace locpriv::market {

namespace {

struct CategoryInfo {
  std::string_view name;
  std::string_view slug;
  double propensity;
};

// Google Play taxonomy circa the paper's crawl.
constexpr CategoryInfo kCategories[kCategoryCount] = {
    {"Books & Reference", "books_reference", 0.15},
    {"Business", "business", 0.40},
    {"Comics", "comics", 0.08},
    {"Communication", "communication", 0.50},
    {"Education", "education", 0.20},
    {"Entertainment", "entertainment", 0.30},
    {"Finance", "finance", 0.45},
    {"Health & Fitness", "health_fitness", 0.55},
    {"Libraries & Demo", "libraries_demo", 0.15},
    {"Lifestyle", "lifestyle", 0.55},
    {"Live Wallpaper", "live_wallpaper", 0.15},
    {"Media & Video", "media_video", 0.25},
    {"Medical", "medical", 0.40},
    {"Music & Audio", "music_audio", 0.25},
    {"News & Magazines", "news_magazines", 0.55},
    {"Personalization", "personalization", 0.15},
    {"Photography", "photography", 0.50},
    {"Productivity", "productivity", 0.35},
    {"Shopping", "shopping", 0.60},
    {"Social", "social", 0.65},
    {"Sports", "sports", 0.45},
    {"Tools", "tools", 0.45},
    {"Transportation", "transportation", 0.90},
    {"Travel & Local", "travel_local", 0.95},
    {"Weather", "weather", 0.95},
    {"Widgets", "widgets", 0.30},
    {"Games", "games", 0.25},
    {"Family", "family", 0.20},
};

}  // namespace

std::string_view category_name(int index) {
  LOCPRIV_EXPECT(index >= 0 && index < kCategoryCount);
  return kCategories[index].name;
}

std::string_view category_slug(int index) {
  LOCPRIV_EXPECT(index >= 0 && index < kCategoryCount);
  return kCategories[index].slug;
}

std::vector<int> allocate_declaring_quota(int total, int per_category) {
  LOCPRIV_EXPECT(per_category > 0);
  LOCPRIV_EXPECT(total >= 0 && total <= kCategoryCount * per_category);

  double propensity_sum = 0.0;
  for (const auto& category : kCategories) propensity_sum += category.propensity;

  // Ideal (real-valued) shares, capped at the category size.
  std::vector<double> ideal(kCategoryCount);
  std::vector<int> quota(kCategoryCount, 0);
  for (int i = 0; i < kCategoryCount; ++i)
    ideal[i] = std::min(static_cast<double>(per_category),
                        static_cast<double>(total) * kCategories[i].propensity /
                            propensity_sum);

  int assigned = 0;
  for (int i = 0; i < kCategoryCount; ++i) {
    quota[i] = static_cast<int>(ideal[i]);
    assigned += quota[i];
  }

  // Largest remainders get the leftover slots (respecting the cap).
  std::vector<int> order(kCategoryCount);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return (ideal[a] - static_cast<int>(ideal[a])) >
           (ideal[b] - static_cast<int>(ideal[b]));
  });
  int remaining = total - assigned;
  for (int round = 0; remaining > 0; ++round) {
    bool progressed = false;
    for (const int i : order) {
      if (remaining == 0) break;
      if (quota[i] >= per_category) continue;
      ++quota[i];
      --remaining;
      progressed = true;
    }
    LOCPRIV_ENSURE(progressed);  // total <= capacity guarantees progress.
  }
  return quota;
}

}  // namespace locpriv::market
